// dvs-job-v1 parsing: defaults, validation, the write_json round trip, and
// the guarantee that malformed jobs throw (land in failed/) instead of
// running something else.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "serve/job_spec.hpp"

namespace dvs::serve {
namespace {

TEST(JobSpec, ParsesSweepJobWithDefaults) {
  const JobSpec j = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "sweep",
          "sweep": {"scenario": "quick"}})",
      "stem-name");
  EXPECT_EQ(j.id, "stem-name");  // no "id" member -> file stem
  EXPECT_EQ(j.kind, JobKind::Sweep);
  EXPECT_FALSE(j.seed_set);
  EXPECT_EQ(j.jobs, 0);
  EXPECT_EQ(j.checkpoint_every, 1u);
  EXPECT_EQ(j.sweep.scenario, "quick");
  EXPECT_EQ(j.sweep.replicates, 0);
}

TEST(JobSpec, ParsesFleetJobWithOverrides) {
  const JobSpec j = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "id": "nightly", "kind": "fleet",
          "seed": 42, "jobs": 4, "checkpoint_every": 8,
          "fleet": {"name": "fleet_smoke", "devices": 256,
                    "shard_size": 32}})",
      "ignored");
  EXPECT_EQ(j.id, "nightly");  // explicit id wins over the stem
  EXPECT_EQ(j.kind, JobKind::Fleet);
  EXPECT_TRUE(j.seed_set);
  EXPECT_EQ(j.seed, 42u);
  EXPECT_EQ(j.jobs, 4);
  EXPECT_EQ(j.checkpoint_every, 8u);
  EXPECT_EQ(j.fleet.name, "fleet_smoke");
  EXPECT_EQ(j.fleet.devices, 256u);
  EXPECT_EQ(j.fleet.shard_size, 32u);
}

TEST(JobSpec, ParsesRunJob) {
  const JobSpec j = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "run",
          "run": {"media": "mpeg", "clip": "terminator2", "seconds": 30,
                  "detector": "ideal", "dpm": "tismdp", "dpm_delay": 0.3,
                  "policy": "qdpm", "faults": "spike10x"}})",
      "r");
  EXPECT_EQ(j.kind, JobKind::Run);
  EXPECT_EQ(j.run.media, "mpeg");
  EXPECT_EQ(j.run.clip, "terminator2");
  EXPECT_DOUBLE_EQ(j.run.seconds, 30.0);
  EXPECT_EQ(j.run.detector, "ideal");
  EXPECT_EQ(j.run.dpm, "tismdp");
  EXPECT_DOUBLE_EQ(j.run.dpm_delay, 0.3);
  EXPECT_EQ(j.run.policy, "qdpm");
  EXPECT_EQ(j.run.faults, "spike10x");
}

TEST(JobSpec, WriteJsonRoundTripsEveryKind) {
  for (const char* text :
       {R"({"schema": "dvs-job-v1", "id": "a", "kind": "sweep", "seed": 9,
            "sweep": {"scenario": "quick", "replicates": 3,
                      "faults": "spike10x", "policy": "paper"}})",
        R"({"schema": "dvs-job-v1", "id": "b", "kind": "fleet", "jobs": 2,
            "fleet": {"name": "fleet_smoke", "devices": 64,
                      "shard_size": 16}})",
        R"({"schema": "dvs-job-v1", "id": "c", "kind": "run",
            "run": {"media": "mp3", "sequence": "ACE", "session": true,
                    "cycles": 2, "dpm": "timeout"}})"}) {
    const JobSpec a = JobSpec::parse_text(text, "x");
    std::ostringstream os;
    a.write_json(os);
    const JobSpec b = JobSpec::parse_text(os.str(), "y");
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.seed_set, a.seed_set);
    EXPECT_EQ(b.seed, a.seed);
    EXPECT_EQ(b.jobs, a.jobs);
    EXPECT_EQ(b.checkpoint_every, a.checkpoint_every);
    EXPECT_EQ(b.sweep.scenario, a.sweep.scenario);
    EXPECT_EQ(b.sweep.replicates, a.sweep.replicates);
    EXPECT_EQ(b.sweep.faults, a.sweep.faults);
    EXPECT_EQ(b.fleet.name, a.fleet.name);
    EXPECT_EQ(b.fleet.devices, a.fleet.devices);
    EXPECT_EQ(b.fleet.shard_size, a.fleet.shard_size);
    EXPECT_EQ(b.run.media, a.run.media);
    EXPECT_EQ(b.run.sequence, a.run.sequence);
    EXPECT_EQ(b.run.session, a.run.session);
    EXPECT_EQ(b.run.cycles, a.run.cycles);
    EXPECT_EQ(b.run.dpm, a.run.dpm);
  }
}

TEST(JobSpec, RejectsBadDocuments) {
  const auto reject = [](const char* text) {
    EXPECT_THROW((void)JobSpec::parse_text(text, "j"), std::invalid_argument)
        << text;
  };
  // wrong / missing schema
  reject(R"({"kind": "run"})");
  reject(R"({"schema": "dvs-job-v2", "kind": "run"})");
  // bad kind, unknown top-level key, section/kind mismatch
  reject(R"({"schema": "dvs-job-v1", "kind": "walk"})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run", "replicates": 2})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "sweep": {"scenario": "quick"}})");
  // unknown key inside a section (typo'd knob must fail loudly)
  reject(R"({"schema": "dvs-job-v1", "kind": "sweep",
             "sweep": {"scenario": "quick", "replicate": 3}})");
  // unresolvable names
  reject(R"({"schema": "dvs-job-v1", "kind": "sweep",
             "sweep": {"scenario": "no-such-scenario"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "fleet",
             "fleet": {"name": "no-such-fleet"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"detector": "psychic"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"dpm": "quantum"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"policy": "no-such-policy"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"faults": "no-such-fault"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"media": "vinyl"}})");
  // unknown clip / mp3 labels outside A-F (they would run something else
  // or fail only once claimed)
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"media": "mpeg", "clip": "fooball"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"media": "mp3", "sequence": "ACEG"}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"media": "mp3", "sequence": "a"}})");
  // values an engine check would reject only once the job is running
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"media": "mp3", "sequence": ""}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run", "run": {"cv2": -1}})");
  reject(R"({"schema": "dvs-job-v1", "kind": "run",
             "run": {"dpm": "tismdp", "dpm_delay": -1}})");
  // missing required section
  reject(R"({"schema": "dvs-job-v1", "kind": "sweep"})");
  reject(R"({"schema": "dvs-job-v1", "kind": "fleet"})");
}

TEST(JobSpec, UnknownDpmKindListsKnownKinds) {
  try {
    (void)JobSpec::parse_text(R"({"schema": "dvs-job-v1", "kind": "run",
                                  "run": {"dpm": "tismdp-dp"}})",
                              "j");
    FAIL() << "tismdp-dp parsed as a DPM kind";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\"tismdp-dp\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("(known: none, timeout, renewal, tismdp, adaptive, "
                       "oracle)"),
              std::string::npos)
        << msg;
  }
}

TEST(JobSpec, TakesWholeInRangeIntegersOnly) {
  // A negative, fractional or out-of-range count would be truncated,
  // wrapped, or cast with undefined behaviour (-5 devices once became
  // 2^64 - 5).  Past 2^53 a double no longer holds every integer.
  for (const char* text : {
           R"({"schema": "dvs-job-v1", "kind": "fleet",
               "fleet": {"name": "fleet_smoke", "devices": -5}})",
           R"({"schema": "dvs-job-v1", "kind": "fleet",
               "fleet": {"name": "fleet_smoke", "devices": 2.5}})",
           R"({"schema": "dvs-job-v1", "kind": "fleet",
               "fleet": {"name": "fleet_smoke",
                         "shard_size": 9007199254740992}})",
           R"({"schema": "dvs-job-v1", "kind": "run", "seed": 1.5})",
           R"({"schema": "dvs-job-v1", "kind": "run", "seed": -1})",
           R"({"schema": "dvs-job-v1", "kind": "run",
               "seed": 9007199254740992})",
           R"({"schema": "dvs-job-v1", "kind": "run", "jobs": 2147483648})",
           R"({"schema": "dvs-job-v1", "kind": "run",
               "checkpoint_every": 0.5})",
           R"({"schema": "dvs-job-v1", "kind": "run",
               "run": {"session": true, "cycles": 2147483648}})",
           R"({"schema": "dvs-job-v1", "kind": "run",
               "run": {"session": true, "cycles": 1.5}})",
           R"({"schema": "dvs-job-v1", "kind": "sweep",
               "sweep": {"scenario": "quick", "replicates": 2147483648}})",
           R"({"schema": "dvs-job-v1", "kind": "sweep",
               "sweep": {"scenario": "quick", "replicates": -2}})"}) {
    EXPECT_THROW((void)JobSpec::parse_text(text, "j"), std::invalid_argument)
        << text;
  }
  // The bounds themselves are fine.
  const JobSpec j = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "run", "seed": 9007199254740991,
          "jobs": 2147483647})",
      "j");
  EXPECT_EQ(j.seed, 9007199254740991u);
  EXPECT_EQ(j.jobs, 2147483647);
}

TEST(JobSpec, ClipAndSequenceAreCheckedOnlyWhereTheyPlay) {
  // The clip matters only for mpeg, the labels only for mp3, and a usage
  // session plays neither.
  for (const char* text :
       {R"({"schema": "dvs-job-v1", "kind": "run",
            "run": {"media": "mpeg", "clip": "terminator2"}})",
        R"({"schema": "dvs-job-v1", "kind": "run",
            "run": {"media": "mpeg", "sequence": "XYZ"}})",
        R"({"schema": "dvs-job-v1", "kind": "run",
            "run": {"media": "mp3", "sequence": "FEDCBA", "clip": "x"}})",
        R"({"schema": "dvs-job-v1", "kind": "run",
            "run": {"media": "mpeg", "clip": "x", "session": true}})"}) {
    EXPECT_NO_THROW((void)JobSpec::parse_text(text, "j")) << text;
  }
}

TEST(JobSpec, MalformedJsonThrowsParseError) {
  EXPECT_THROW((void)JobSpec::parse_text("{not json", "j"), json::ParseError);
}

}  // namespace
}  // namespace dvs::serve
