// Fixture: banned tokens inside comments and string literals are not code.
// A std::map<int, int> mentioned here must not trip hot-path-map, and neither
// must rand(), time(nullptr) or std::stoull(text) in this comment.

/* Nor inside a block comment: std::unordered_map<K, V>, system_clock. */

const char* kFixtureDoc =
    "std::unordered_map<K, V> in a string is documentation, not code";
const char* kFixtureRaw = R"(rand() and time(nullptr) inside a raw string)";
const char* kFixtureParse = "strtoul(text, nullptr, 10) in a string is not a parse";

// A suppression marker inside a string literal is neither a real suppression
// nor a bad-suppression finding (suppressions live in comments only).
const char* kFixtureAllow =
    "dhtidx-lint: allow(bogus) \"a string is not a suppression comment\"";

int fixture_clean() { return 0; }
