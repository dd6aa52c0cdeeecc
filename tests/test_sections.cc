// Regression tests for the schema-versioned section manifest
// (harness/sections.h) and the single sanctioned emitter,
// harness::emit_section.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/json.h"
#include "harness/sections.h"

namespace l96 {
namespace {

using harness::emit_section;
using harness::find_section;
using harness::Json;
using harness::kSectionManifest;
using harness::section_schema;

TEST(WriteJsonTest, CreatesParentDirsAndWritesDumpNewline) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "l96_write_json";
  std::filesystem::remove_all(root);
  const std::string path = (root / "a" / "b" / "out.json").string();
  const Json j = Json::object().set("k", 1).set("v", Json::array());
  harness::write_json(path, j);

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), j.dump() + "\n");

  // A path that cannot be opened for writing (here: a directory) throws
  // an error naming it.
  const std::string dir = (root / "a").string();
  try {
    harness::write_json(dir, j);
    ADD_FAILURE() << "writing to a directory did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos);
  }
  std::filesystem::remove_all(root);
}

TEST(SectionManifestTest, RowsAreUniqueAndWellFormed) {
  std::set<std::pair<std::string, int>> seen;
  for (const auto& s : kSectionManifest) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GE(s.version, 1);
    EXPECT_FALSE(s.producer.empty());
    // Name syntax is enforced by section_schema; a malformed manifest row
    // would make its own emitter throw.
    EXPECT_NO_THROW(section_schema(std::string(s.name), s.version));
    EXPECT_TRUE(
        seen.insert({std::string(s.name), s.version}).second)
        << "duplicate manifest row: " << s.name << " v" << s.version;
  }
}

TEST(SectionManifestTest, FindSectionMatchesManifest) {
  for (const auto& s : kSectionManifest) {
    const auto* found = find_section(s.name, s.version);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->producer, s.producer);
  }
  EXPECT_EQ(find_section("shard", 99), nullptr);
  // The retired flat fleet section is gone: its rows are shard.v2 rows.
  EXPECT_EQ(find_section("fleet", 2), nullptr);
  EXPECT_EQ(find_section("shard", 1), nullptr);
  EXPECT_EQ(find_section("nonexistent", 1), nullptr);
}

TEST(SectionManifestTest, LbFailoverSectionIsRegistered) {
  const auto* lb = find_section("lb", 2);
  ASSERT_NE(lb, nullptr);
  EXPECT_EQ(lb->producer, "harness::lb_json");
  const Json section = emit_section("lb", 2);
  EXPECT_EQ(section.dump(), "{\"schema\":\"l96.lb.v2\"}");
}

// Recovery and LB rows print the shard counter block since v2; their v1
// key orders are retired.
TEST(SectionManifestTest, FailoverSectionsAreV2Only) {
  const auto* recovery = find_section("recovery", 2);
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->producer, "harness::recovery_json");
  EXPECT_EQ(find_section("recovery", 1), nullptr);
  EXPECT_EQ(find_section("lb", 1), nullptr);
  EXPECT_THROW(emit_section("recovery", 1), std::invalid_argument);
  EXPECT_THROW(emit_section("lb", 1), std::invalid_argument);
}

TEST(SectionSchemaTest, FormatsAndValidates) {
  EXPECT_EQ(section_schema("shard", 2), "l96.shard.v2");
  EXPECT_EQ(section_schema("lb", 2), "l96.lb.v2");
  EXPECT_THROW(section_schema("", 1), std::invalid_argument);
  EXPECT_THROW(section_schema("Fleet", 1), std::invalid_argument);
  EXPECT_THROW(section_schema("fle et", 1), std::invalid_argument);
  EXPECT_THROW(section_schema("fleet", 0), std::invalid_argument);
}

TEST(EmitSectionTest, SchemaFieldComesFirstAndBodyKeysFollow) {
  Json body = Json::object();
  body.set("rows", Json::array());
  body.set("count", std::uint64_t{3});
  const Json section = emit_section("shard", 2, std::move(body));
  const std::string dump = section.dump();
  EXPECT_EQ(dump.rfind("{\"schema\":\"l96.shard.v2\"", 0), 0u)
      << "schema must be the first key: " << dump;
  EXPECT_NE(dump.find("\"rows\":[]"), std::string::npos);
  EXPECT_NE(dump.find("\"count\":3"), std::string::npos);
}

TEST(EmitSectionTest, RefusesUnlistedSections) {
  EXPECT_THROW(emit_section("shard", 99), std::invalid_argument);
  EXPECT_THROW(emit_section("fleet", 2), std::invalid_argument);
  EXPECT_THROW(emit_section("made_up", 1), std::invalid_argument);
}

TEST(EmitSectionTest, RefusesNonObjectBody) {
  EXPECT_THROW(emit_section("shard", 2, Json("a string")),
               std::invalid_argument);
  EXPECT_THROW(emit_section("shard", 2, Json(3.0)), std::invalid_argument);
}

TEST(EmitSectionTest, NullBodyYieldsBareSchemaObject) {
  const Json section = emit_section("shard", 2, Json());
  EXPECT_EQ(section.dump(), "{\"schema\":\"l96.shard.v2\"}");
}

// Every manifest row must be emittable: this is the review hook — if a
// producer bumps its version, the manifest edit lands here first.
TEST(EmitSectionTest, EveryManifestRowEmits) {
  for (const auto& s : kSectionManifest) {
    const Json section = emit_section(std::string(s.name), s.version);
    const auto* schema = section.find("schema");
    ASSERT_NE(schema, nullptr);
    ASSERT_NE(schema->as_string(), nullptr);
    EXPECT_EQ(*schema->as_string(),
              section_schema(std::string(s.name), s.version));
  }
}

}  // namespace
}  // namespace l96
