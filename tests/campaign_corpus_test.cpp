// Malformed-input corpus sweep for the campaign's parsers, in the style of
// wire_corpus_test.cpp: deterministic, rng-driven mutations of valid
// journal lines, shard files and fleet frame streams.
//
// Every parser here reads bytes another process (or a killed one) wrote:
// decodeLine reads the journal and every outcome frame, mergeShards reads
// shard files a worker may have died writing, and FrameReader reads
// whatever a worker socket delivers. Two properties must hold for every
// mutation:
//   totality  — no crash, hang, or sanitizer report (this file runs under
//               ASan+UBSan and TSan in the CI matrix);
//   stability — what a parser accepts, it accepts as something the
//               encoder reproduces: a decoded line re-encodes to a line
//               that decodes to the same bytes again, and every frame
//               FrameReader yields is exactly the next slice of the stream.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/fleet/protocol.h"
#include "campaign/fleet/shard.h"
#include "campaign/journal.h"
#include "common/framing.h"
#include "common/rng.h"

namespace avd::campaign {
namespace {

/// One valid line of every journal shape: gen, done, failed done with an
/// escaped error, and a safety-violating done with a witness.
std::vector<std::string> lineCorpus() {
  GenEvent gen;
  gen.test = 17;
  gen.point = {3, 0, 41, 250};
  gen.generatedBy = "step:ts_inflation_log2";
  gen.parentImpact = 1.0 / 3.0;
  gen.pluginIndex = 2;

  DoneEvent done;
  done.test = 99;
  done.outcome.impact = 0.1 + 0.2;
  done.outcome.throughputRps = 1234.5678901234567;
  done.outcome.avgLatencySec = 2e-3;
  done.outcome.viewChanges = 11;
  done.outcome.restarts = 5;
  done.outcome.recoveryLatencySec = 0.125;
  done.outcome.queueDrops = 123456;
  done.outcome.quotaDrops = 789;
  done.bestImpact = 0.9999999999999999;

  DoneEvent failed;
  failed.test = 4;
  failed.failed = true;
  failed.error = "tab\there \"quoted\" back\\slash\nnewline \x01";

  DoneEvent unsafe = done;
  unsafe.test = 5;
  unsafe.outcome.safetyViolated = true;
  unsafe.outcome.safetyWitness = "seq 7: replicas 0,1 committed d1; 2 d2";

  return {encodeGen(gen), encodeDone(done), encodeDone(failed),
          encodeDone(unsafe)};
}

std::string encodeEvent(const JournalEvent& event) {
  return event.kind == JournalEvent::Kind::kGen ? encodeGen(event.gen)
                                                : encodeDone(event.done);
}

/// Overwrites, inserts, or deletes a few random bytes; biased towards the
/// characters the line format is made of, so mutations reach past the
/// first key.
std::string mutate(std::string text, util::Rng& rng) {
  static constexpr char kAlphabet[] = "{}[]\",:\\u0123456789.-+eEnatfx \n";
  const std::uint64_t edits = 1 + rng.below(6);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const char c = rng.chance(0.5)
                       ? kAlphabet[rng.below(sizeof(kAlphabet) - 1)]
                       : static_cast<char>(rng.below(256));
    const std::size_t at = rng.below(text.size() + 1);
    switch (rng.below(3)) {
      case 0:
        if (at < text.size()) text[at] = c;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      default:
        if (at < text.size()) {
          text.erase(at, 1 + rng.below(std::min<std::uint64_t>(
                                 8, text.size() - at)));
        }
    }
  }
  return text;
}

TEST(CampaignCorpus, CorpusLinesRoundTrip) {
  for (const std::string& line : lineCorpus()) {
    const auto decoded = decodeLine(line);
    ASSERT_TRUE(decoded.has_value()) << line;
    EXPECT_EQ(encodeEvent(*decoded), line);
  }
}

TEST(CampaignCorpus, MutatedJournalLinesDecodeTotallyAndStably) {
  util::Rng rng(2011);
  const auto lines = lineCorpus();
  std::size_t accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::string& line = lines[rng.below(lines.size())];
    const std::string mutated = mutate(line, rng);
    const auto decoded = decodeLine(mutated);
    if (!decoded) continue;
    ++accepted;
    const std::string canonical = encodeEvent(*decoded);
    const auto again = decodeLine(canonical);
    ASSERT_TRUE(again.has_value())
        << "round " << round << ": '" << mutated << "' decoded, but its "
        << "re-encoding '" << canonical << "' does not";
    EXPECT_EQ(encodeEvent(*again), canonical)
        << "round " << round << ": '" << mutated << "'";
  }
  // The oracle must actually see accepted mutations, or it shows nothing.
  EXPECT_GT(accepted, 1000u);
}

TEST(CampaignCorpus, MutatedShardFilesMergeTotally) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "avd_campaign_corpus";
  util::Rng rng(2012);
  const auto lines = lineCorpus();
  std::string shard;
  for (std::size_t i = 1; i < lines.size(); ++i) shard += lines[i] + "\n";

  for (int round = 0; round < 400; ++round) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const std::uint64_t slot : {0u, 1u}) {
      std::string contents = shard;
      // A torn tail, a mutation anywhere, or both.
      if (rng.chance(0.5)) contents = mutate(contents, rng);
      if (rng.chance(0.5)) contents.resize(rng.below(contents.size() + 1));
      std::ofstream(fleet::shardPath(dir.string(), slot, round),
                    std::ios::binary)
          << contents;
    }
    const fleet::MergedShards merged = fleet::mergeShards(dir.string());
    EXPECT_EQ(merged.shardFiles + merged.corruptShards, 2u) << round;
    EXPECT_LE(merged.outcomes.size(), 2 * (lines.size() - 1)) << round;
    for (const auto& [test, done] : merged.outcomes) {
      EXPECT_EQ(done.test, test) << round;
      const auto again = decodeLine(encodeDone(done));
      ASSERT_TRUE(again.has_value()) << round;
      EXPECT_EQ(encodeDone(again->done), encodeDone(done)) << round;
    }
  }
  std::filesystem::remove_all(dir);
}

/// A fleet conversation as it crosses one socket: length-prefixed frames
/// of every protocol message.
std::string frameStream() {
  const auto frame = [](const std::string& payload) {
    std::string out;
    const auto length = static_cast<std::uint32_t>(payload.size());
    for (const int shift : {24, 16, 8, 0}) {
      out.push_back(static_cast<char>((length >> shift) & 0xFF));
    }
    return out + payload;
  };
  fleet::Welcome welcome;
  welcome.slot = 1;
  welcome.incarnation = 3;
  welcome.system = "quorum";
  welcome.seed = 2011;
  welcome.outDir = "runs/campaign";
  fleet::Assign assign;
  assign.test = 9;
  assign.point = {1, 2, 3};
  fleet::Heartbeat beat;
  beat.busyTest = 9;
  beat.busyMs = 120;
  std::string stream = frame(fleet::encodeHello(fleet::Hello{})) +
                       frame(fleet::encodeWelcome(welcome)) +
                       frame(fleet::encodeAssign(assign)) +
                       frame(fleet::encodeHeartbeat(beat));
  for (const std::string& line : lineCorpus()) stream += frame(line);
  return stream + frame("") + frame(fleet::encodeShutdown());
}

/// Every payload parser a frame can reach, for totality.
void parsePayload(const std::string& payload) {
  switch (fleet::kindOf(payload)) {
    case fleet::MessageKind::kHello:
      (void)fleet::decodeHello(payload);
      break;
    case fleet::MessageKind::kWelcome:
      (void)fleet::decodeWelcome(payload);
      break;
    case fleet::MessageKind::kAssign:
      (void)fleet::decodeAssign(payload);
      break;
    case fleet::MessageKind::kHeartbeat:
      (void)fleet::decodeHeartbeat(payload);
      break;
    default:
      (void)decodeLine(payload);
  }
}

TEST(CampaignCorpus, MutatedFrameStreamsReassembleExactlyOrStopCorrupt) {
  util::Rng rng(2013);
  const std::string clean = frameStream();
  std::size_t corruptRounds = 0;
  for (int round = 0; round < 1500; ++round) {
    std::string stream = mutate(clean, rng);
    if (rng.chance(0.2)) stream.resize(rng.below(stream.size() + 1));
    if (round == 0) stream = clean;

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    util::FrameReader reader;
    std::string reassembled;
    const auto drain = [&] {
      while (const auto payload = reader.next()) {
        ASSERT_LE(payload->size(), util::kMaxFrameBytes);
        parsePayload(*payload);
        const auto length = static_cast<std::uint32_t>(payload->size());
        for (const int shift : {24, 16, 8, 0}) {
          reassembled.push_back(static_cast<char>((length >> shift) & 0xFF));
        }
        reassembled += *payload;
      }
    };
    // Deliver in random chunks so frames also straddle pump() calls.
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.below(64), stream.size() - at);
      ASSERT_EQ(::send(fds[0], stream.data() + at, chunk, 0),
                static_cast<ssize_t>(chunk));
      at += chunk;
      ASSERT_TRUE(reader.pump(fds[1]));
      drain();
    }
    ::close(fds[0]);
    EXPECT_FALSE(reader.pump(fds[1])) << "EOF reads as a lost peer";
    drain();
    ::close(fds[1]);

    ASSERT_LE(reassembled.size(), stream.size()) << round;
    EXPECT_EQ(stream.compare(0, reassembled.size(), reassembled), 0)
        << round << ": frames must be exactly the stream's next slices";
    // What is left over is one frame the reader cannot yield: an over-cap
    // header (corrupt) or an incomplete frame at EOF.
    const std::string rest = stream.substr(reassembled.size());
    if (rest.size() < 4) {
      EXPECT_FALSE(reader.corrupt()) << round;
      continue;
    }
    std::uint64_t declared = 0;
    for (int i = 0; i < 4; ++i) {
      declared = (declared << 8) | static_cast<unsigned char>(rest[i]);
    }
    if (reader.corrupt()) {
      ++corruptRounds;
      EXPECT_GT(declared, util::kMaxFrameBytes) << round;
    } else {
      EXPECT_GT(declared + 4, rest.size()) << round;
    }
  }
  EXPECT_GT(corruptRounds, 50u) << "mutations must reach length headers";
}

}  // namespace
}  // namespace avd::campaign
