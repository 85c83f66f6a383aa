// Experiment description and its identity (DESIGN.md §5g): the SHA-256 and
// shortest-round-trip number formatting the cache key is built from, the
// canonical JSON value type, and the canonical config + cache key. The
// headline properties under test:
//
//   * canonical_config_json is byte-stable and round-trips exactly;
//   * the cache key ignores the kernel choice but separates seed, rate and
//     code version.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/config.hpp"
#include "common/numfmt.hpp"
#include "common/sha256.hpp"
#include "driver/experiment_config.hpp"
#include "serve/json.hpp"

namespace ownsim {
namespace {

using serve::Json;

/// A tiny OWN-256 point that still exercises warmup/measure/drain.
ExperimentConfig small_config(std::uint64_t seed = 7) {
  ExperimentConfig config = parse_experiment_config(Config::from_string(
      "topology=own cores=256 pattern=UN rate=0.004 warmup=100 measure=200"));
  config.injector.master_seed = seed;
  return config;
}

// ---------------------------------------------------------------------------
// SHA-256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 hasher;
  hasher.update("hello ");
  hasher.update("world");
  EXPECT_EQ(hasher.hex_digest(), sha256_hex("hello world"));
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  const std::string block(1000, 'a');
  Sha256 hasher;
  for (int i = 0; i < 1000; ++i) hasher.update(block);
  // NIST vector: one million 'a'.
  EXPECT_EQ(hasher.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// ---------------------------------------------------------------------------
// numfmt

TEST(NumFmt, ShortestRoundTrip) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.004), "0.004");
  EXPECT_EQ(format_double(-1.0), "-1");
  EXPECT_EQ(std::stod(format_double(0.1)), 0.1);
  EXPECT_EQ(std::stod(format_double(1e300)), 1e300);
  EXPECT_EQ(format_int(-42), "-42");
  EXPECT_EQ(format_uint(std::uint64_t{18446744073709551615ull}),
            "18446744073709551615");
}

TEST(NumFmt, NonFiniteThrows) {
  EXPECT_THROW(format_double(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(format_double(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// serve::Json

TEST(ServeJson, CanonicalDumpSortsKeys) {
  Json::Object o;
  o["zebra"] = Json(1);
  o["alpha"] = Json(true);
  o["mid"] = Json("x");
  EXPECT_EQ(Json(std::move(o)).dump(),
            "{\"alpha\":true,\"mid\":\"x\",\"zebra\":1}");
}

TEST(ServeJson, ParseDumpIsIdentityOnCanonicalText) {
  const std::string canonical =
      "{\"a\":[1,2.5,\"s\",null,false],\"b\":{\"n\":-3},\"c\":\"\\\"q\\\\\"}";
  EXPECT_EQ(Json::parse(canonical).dump(), canonical);
}

TEST(ServeJson, Int64SurvivesRoundTrip) {
  const std::string text = "{\"seed\":9223372036854775807}";
  const Json parsed = Json::parse(text);
  EXPECT_TRUE(parsed.find("seed")->is_int());
  EXPECT_EQ(parsed.find("seed")->as_int(), 9223372036854775807LL);
  EXPECT_EQ(parsed.dump(), text);
}

TEST(ServeJson, EscapesAndUnicode) {
  const Json parsed = Json::parse("\"a\\u0041\\n\\t\\u00e9\"");
  EXPECT_EQ(parsed.as_string(), "aA\n\t\xc3\xa9");
}

TEST(ServeJson, MalformedInputThrows) {
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::invalid_argument);
  EXPECT_THROW(Json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Canonical config + cache keys

TEST(CanonicalConfig, ByteStableAcrossCalls) {
  const ExperimentConfig config = small_config();
  EXPECT_EQ(canonical_config_json(config), canonical_config_json(config));
}

TEST(CanonicalConfig, RoundTripsExactly) {
  ExperimentConfig config = parse_experiment_config(Config::from_string(
      "topology=own cores=256 pattern=BR rate=0.006 config=3 "
      "scenario=conservative warmup=500 measure=1000 seed=42 fault=1 "
      "fault_ber=1e-9 fault_kill=1:5@700 watchdog=5000"));
  const std::string first = canonical_config_json(config);
  const ExperimentConfig reparsed =
      experiment_config_from_canonical_json(first);
  EXPECT_EQ(canonical_config_json(reparsed), first);
  // parse -> dump through the generic Json layer is also a no-op.
  EXPECT_EQ(Json::parse(first).dump(), first);
}

TEST(CanonicalConfig, UnknownKeyThrows) {
  EXPECT_THROW(experiment_config_from_canonical_json("{\"not_a_field\":1}"),
               std::invalid_argument);
}

TEST(CacheKey, KernelChoiceSharesOneEntry) {
  // activity vs lockstep is bit-identical by the §5e contract, so both
  // kernels may share a cache entry: the kernel is not part of the key.
  ExperimentConfig activity = small_config();
  activity.kernel = KernelMode::kActivity;
  ExperimentConfig lockstep = small_config();
  lockstep.kernel = KernelMode::kLockstep;
  EXPECT_EQ(experiment_cache_key(activity), experiment_cache_key(lockstep));
}

TEST(CacheKey, SeedRateAndVersionSeparateEntries) {
  const ExperimentConfig base = small_config(7);
  EXPECT_NE(experiment_cache_key(base), experiment_cache_key(small_config(8)));
  ExperimentConfig faster = small_config(7);
  faster.rate = 0.005;
  EXPECT_NE(experiment_cache_key(base), experiment_cache_key(faster));
  EXPECT_NE(experiment_cache_key(base, "other-version"),
            experiment_cache_key(base));
  EXPECT_EQ(experiment_cache_key(base),
            experiment_cache_key(base, code_version()));
}

TEST(ParseExperimentConfig, ValidatesInput) {
  EXPECT_THROW(parse_experiment_config(Config::from_string("config=5")),
               std::invalid_argument);
  EXPECT_THROW(parse_experiment_config(Config::from_string("scenario=bogus")),
               std::invalid_argument);
  EXPECT_THROW(parse_experiment_config(Config::from_string("kernel=bogus")),
               std::invalid_argument);
  EXPECT_THROW(
      parse_experiment_config(Config::from_string("fault_kill=oops")),
      std::invalid_argument);
  const ExperimentConfig config = parse_experiment_config(
      Config::from_string("watchdog=1234 fault_token_loss=0@50:never"));
  EXPECT_TRUE(config.fault.watchdog);
  EXPECT_EQ(config.fault.watchdog_window, 1234);
  ASSERT_EQ(config.fault.events.size(), 1u);
  EXPECT_EQ(config.fault.events[0].recovery, kNeverCycle);
}

}  // namespace
}  // namespace ownsim
