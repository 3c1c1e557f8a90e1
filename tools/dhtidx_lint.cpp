// dhtidx_lint: the repo-specific determinism linter.
//
// A token/regex-level checker (no libclang dependency) for the project rules
// that a compiler cannot see but a reviewer must otherwise carry in their
// head. Every rule guards one determinism or accounting contract documented
// in DESIGN.md section 13:
//
//   banned-random      Simulation results must replay bit-identically from a
//                      seed, so no code under src/ may read ambient entropy or
//                      wall-clock time through rand()/random()/
//                      std::random_device/time()/clock()/system_clock. All
//                      randomness flows through common/rng.hpp (the exempt
//                      file); wall timing uses steady_clock (not flagged).
//   hot-path-map       src/index, src/dht and src/query are the measured hot
//                      paths: PR 5 replaced their node-based std::map /
//                      std::unordered_map containers with sorted FlatMap
//                      storage. New code must not reintroduce them silently;
//                      deliberate uses carry a justified suppression.
//   ledger-discipline  Traffic accounting must route through net::active()
//                      (the thread-local override protocol the sharded feed
//                      depends on). Writing `foo.queries.record(...)` against
//                      a ledger that was not obtained from active() bypasses
//                      the override and silently misattributes traffic.
//   query-by-value     Service paths pass `const Query*` interner refs or
//                      const references; a by-value query::Query parameter in
//                      src/index re-copies the tree the interner exists to
//                      share.
//   unguarded-mutex    A mutex member (std::mutex or dhtidx::Mutex) whose
//                      file declares no DHTIDX_GUARDED_BY(that_mutex) field
//                      protects nothing the thread-safety analyzer can see.
//   pragma-once        Every header under src/ carries #pragma once (the
//                      standalone-header-compile test includes each one
//                      twice).
//   lenient-number-parse
//                      Numbers read from files and command lines go through
//                      parse_number (common/strings.hpp), which takes digits
//                      only. The C library parsers (the sto* family, the
//                      strto* family, atoi, atol) accept a sign, leading
//                      blanks and trailing junk, so "-1" reads as 2^64 - 1.
//                      Checked under src/, bench/, examples/ and tools/.
//   bad-suppression    A `// dhtidx-lint: allow(<check>)` comment must name a
//                      known check and carry a quoted justification string.
//
// Suppressions: `// dhtidx-lint: allow(<check>) "<why>"` disarms <check> on
// its own line and on the following line. The justification is mandatory —
// the suppression is the documentation.
//
// Usage:
//   dhtidx_lint [--root DIR] [--recurse] [--list] [files...]
//
// Paths are classified relative to --root (default: the current directory),
// so fixture trees lint exactly like the real one via --root
// tests/lint_fixtures. --recurse walks DIR/{src,tools,tests,bench,examples}
// for *.cpp/*.hpp — the same file set CI lints. Files whose relative path
// enters tests/lint_fixtures/ are skipped unless --root points inside the
// fixture tree (the fixtures would otherwise fail a whole-repo sweep by
// design). Exit status: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <system_error>
#include <tuple>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string check;
  std::string message;
};

struct CheckInfo {
  const char* name;
  const char* summary;
};

constexpr CheckInfo kChecks[] = {
    {"banned-random", "ambient entropy/wall-clock outside common/rng.hpp"},
    {"hot-path-map",
     "std::map/std::unordered_map in src/index, src/dht, src/query, src/sim"},
    {"ledger-discipline", "TrafficLedger category writes bypassing net::active()"},
    {"query-by-value", "by-value query::Query parameter on a service path"},
    {"unguarded-mutex", "mutex member without a DHTIDX_GUARDED_BY field"},
    {"pragma-once", "src/ header without #pragma once"},
    {"lenient-number-parse", "sto*/strto*/atoi/atol number parse instead of parse_number"},
    {"bad-suppression", "allow() naming an unknown check or lacking a justification"},
};

bool known_check(const std::string& name) {
  for (const CheckInfo& check : kChecks) {
    if (name == check.name) return true;
  }
  return false;
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// What strip_code blanks besides string/char literal contents. Suppression
/// parsing keeps comments (that is where suppressions live) but still blanks
/// literals so a string containing `dhtidx-lint: allow(...)` is documentation,
/// not a suppression.
enum class Strip { kCommentsAndStrings, kStringsOnly };

/// Replaces string/char literal contents — and, in kCommentsAndStrings mode,
/// comments — with spaces, keeping line numbers and column positions stable.
/// Handles //, /* */ (multi-line), "..." with escapes, '...' and raw strings
/// R"delim(...)delim" (multi-line).
std::vector<std::string> strip_code(const std::vector<std::string>& lines,
                                    Strip mode) {
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  const bool keep_comments = mode == Strip::kStringsOnly;
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: the `)delim"` terminator
  std::vector<std::string> out;
  out.reserve(lines.size());

  for (const std::string& line : lines) {
    std::string code(line.size(), ' ');
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      switch (state) {
        case State::kCode: {
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            if (keep_comments) {
              for (std::size_t j = i; j < line.size(); ++j) code[j] = line[j];
            }
            i = line.size();  // rest of line is a comment
          } else if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            if (keep_comments) {
              code[i] = '/';
              code[i + 1] = '*';
            }
            state = State::kBlockComment;
            ++i;
          } else if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"' &&
                     (i == 0 || (!std::isalnum(static_cast<unsigned char>(line[i - 1])) &&
                                 line[i - 1] != '_'))) {
            const std::size_t open = line.find('(', i + 2);
            raw_delim = ")" + (open == std::string::npos
                                   ? std::string()
                                   : line.substr(i + 2, open - (i + 2))) +
                        "\"";
            state = State::kRawString;
            code[i] = 'R';
            if (open != std::string::npos) i = open; else i = line.size();
          } else if (c == '"') {
            state = State::kString;
            code[i] = '"';
          } else if (c == '\'') {
            state = State::kChar;
            code[i] = '\'';
          } else {
            code[i] = c;
          }
          break;
        }
        case State::kBlockComment:
          if (keep_comments) code[i] = c;
          if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            if (keep_comments) code[i + 1] = '/';
            state = State::kCode;
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            state = State::kCode;
            code[i] = '"';
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
            code[i] = '\'';
          }
          break;
        case State::kRawString: {
          const std::size_t end = line.find(raw_delim, i);
          if (end == std::string::npos) {
            i = line.size();
          } else {
            i = end + raw_delim.size() - 1;
            state = State::kCode;
          }
          break;
        }
      }
    }
    // Strings and chars cannot span lines (raw strings and block comments
    // can); reset so a stray unterminated literal poisons at most one line.
    if (state == State::kString || state == State::kChar) state = State::kCode;
    out.push_back(std::move(code));
  }
  return out;
}

/// Per-line suppression table: allowed[line] holds the checks disarmed on
/// that 1-based line. A suppression covers its own line and the next one.
using Suppressions = std::map<std::size_t, std::set<std::string>>;

/// `lines` must be the Strip::kStringsOnly view: comments (where suppressions
/// live) intact, string/char literal contents blanked so quoted allow()
/// examples neither suppress nor trip bad-suppression.
Suppressions parse_suppressions(const std::string& rel,
                                const std::vector<std::string>& lines,
                                std::vector<Finding>& findings) {
  static const std::regex kAllow(
      R"(dhtidx-lint:\s*allow\(([A-Za-z0-9_-]+)\)(\s*\"([^\"]*)\")?)");
  Suppressions allowed;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t line_no = i + 1;
    auto begin = std::sregex_iterator(lines[i].begin(), lines[i].end(), kAllow);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string check = (*it)[1].str();
      const bool justified = (*it)[2].matched && !(*it)[3].str().empty();
      if (!known_check(check)) {
        findings.push_back({rel, line_no, "bad-suppression",
                            "allow(" + check + ") names an unknown check"});
        continue;
      }
      if (!justified) {
        findings.push_back({rel, line_no, "bad-suppression",
                            "allow(" + check +
                                ") requires a quoted justification string"});
        continue;  // an undocumented suppression does not take effect
      }
      allowed[line_no].insert(check);
      allowed[line_no + 1].insert(check);
    }
  }
  return allowed;
}

bool suppressed(const Suppressions& allowed, std::size_t line,
                const std::string& check) {
  const auto it = allowed.find(line);
  return it != allowed.end() && it->second.count(check) > 0;
}

void report(std::vector<Finding>& findings, const Suppressions& allowed,
            const std::string& rel, std::size_t line, const char* check,
            std::string message) {
  if (suppressed(allowed, line, check)) return;
  findings.push_back({rel, line, check, std::move(message)});
}

/// Runs `pattern` over every stripped line, reporting one finding per
/// matching line.
void scan_lines(const std::vector<std::string>& code, const std::regex& pattern,
                const char* check, const std::string& message,
                const std::string& rel, const Suppressions& allowed,
                std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (std::regex_search(code[i], pattern)) {
      report(findings, allowed, rel, i + 1, check, message);
    }
  }
}

// --- the checks -------------------------------------------------------------

void check_banned_random(const std::string& rel,
                         const std::vector<std::string>& code,
                         const Suppressions& allowed,
                         std::vector<Finding>& findings) {
  if (!starts_with(rel, "src/")) return;
  if (rel == "src/common/rng.hpp" || rel == "src/common/rng.cpp") return;
  static const std::regex kBanned(
      R"(std::random_device|\bsrand\s*\(|\brand\s*\(|\brandom\s*\(|\btime\s*\(|\bclock\s*\(|\bsystem_clock\b)");
  scan_lines(code, kBanned, "banned-random",
             "ambient entropy/wall-clock source; route randomness through "
             "common/rng.hpp (steady_clock is the sanctioned timer)",
             rel, allowed, findings);
}

void check_hot_path_map(const std::string& rel,
                        const std::vector<std::string>& code,
                        const Suppressions& allowed,
                        std::vector<Finding>& findings) {
  // src/sim joined the policed set in PR 10: the feed's delta queues run
  // once per recorded cache mutation, so a per-query map there is exactly
  // the allocation pattern the epoch design exists to avoid.
  if (!starts_with(rel, "src/index/") && !starts_with(rel, "src/dht/") &&
      !starts_with(rel, "src/query/") && !starts_with(rel, "src/sim/")) {
    return;
  }
  static const std::regex kMap(R"(std::(unordered_)?map\s*<)");
  scan_lines(code, kMap, "hot-path-map",
             "node-based map on a measured hot path; use FlatMap (PR 5) or "
             "justify with a suppression",
             rel, allowed, findings);
}

void check_ledger_discipline(const std::string& rel,
                             const std::vector<std::string>& code,
                             const Suppressions& allowed,
                             std::vector<Finding>& findings) {
  if (!starts_with(rel, "src/")) return;
  // Variables bound from net::active()/active_ledger() are the blessed write
  // handles; chained `net::active(x).queries.record(...)` never matches the
  // write pattern below (the base is a `)`), so only named bases need vetting.
  // Bindings are matched over the joined text so a line break anywhere in the
  // statement (binding on one line, `active(...)` on the next, as clang-format
  // may wrap it) still blesses the name.
  static const std::regex kBlessed(
      R"(TrafficLedger\s*&\s*(\w+)\s*=\s*[^;]*\bactive)");
  std::string joined;
  for (const std::string& line : code) {
    joined += line;
    joined += '\n';
  }
  std::set<std::string> blessed;
  for (auto it = std::sregex_iterator(joined.begin(), joined.end(), kBlessed);
       it != std::sregex_iterator(); ++it) {
    blessed.insert((*it)[1].str());
  }
  static const std::regex kWrite(
      R"(\b(\w+)\.(queries|responses|cache|routing|retries|maintenance|timeouts|duplicates|rejected)\.record\s*\()");
  for (std::size_t i = 0; i < code.size(); ++i) {
    auto begin = std::sregex_iterator(code[i].begin(), code[i].end(), kWrite);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string base = (*it)[1].str();
      if (blessed.count(base) > 0) continue;
      report(findings, allowed, rel, i + 1, "ledger-discipline",
             "ledger write through `" + base +
                 "` bypasses net::active(); bind `net::TrafficLedger& ... = "
                 "...active...` or record through the active() chain");
    }
  }
}

void check_query_by_value(const std::string& rel,
                          const std::vector<std::string>& code,
                          const Suppressions& allowed,
                          std::vector<Finding>& findings) {
  if (!starts_with(rel, "src/index/") && !starts_with(rel, "src/query/")) return;
  static const std::regex kByValue(
      R"([(,]\s*(query::)?Query\s+[A-Za-z_]\w*\s*[,)=])");
  scan_lines(code, kByValue, "query-by-value",
             "by-value query::Query parameter; pass `const Query&`, `Query&&` "
             "or an interned `const Query*`",
             rel, allowed, findings);
}

void check_unguarded_mutex(const std::string& rel,
                           const std::vector<std::string>& code,
                           const Suppressions& allowed,
                           std::vector<Finding>& findings) {
  if (!starts_with(rel, "src/")) return;
  if (rel == "src/common/thread_annotations.hpp") return;  // the wrapper itself
  static const std::regex kMutexDecl(
      R"(\b(?:std::mutex|(?:dhtidx::)?Mutex)\s+(\w+)\s*;)");
  for (std::size_t i = 0; i < code.size(); ++i) {
    auto begin = std::sregex_iterator(code[i].begin(), code[i].end(), kMutexDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      bool guarded = false;
      const std::regex guard(R"(DHTIDX_GUARDED_BY\(\s*)" + name + R"(\s*\))");
      for (const std::string& other : code) {
        if (std::regex_search(other, guard)) {
          guarded = true;
          break;
        }
      }
      if (guarded) continue;
      report(findings, allowed, rel, i + 1, "unguarded-mutex",
             "mutex member `" + name +
                 "` has no DHTIDX_GUARDED_BY(" + name +
                 ") field in this file; annotate what it protects");
    }
  }
}

void check_pragma_once(const std::string& rel,
                       const std::vector<std::string>& raw,
                       const Suppressions& allowed,
                       std::vector<Finding>& findings) {
  if (!starts_with(rel, "src/") || !ends_with(rel, ".hpp")) return;
  for (const std::string& line : raw) {
    if (line.find("#pragma once") != std::string::npos) return;
  }
  report(findings, allowed, rel, 1, "pragma-once",
         "header lacks #pragma once");
}

void check_lenient_number_parse(const std::string& rel,
                                const std::vector<std::string>& code,
                                const Suppressions& allowed,
                                std::vector<Finding>& findings) {
  if (!starts_with(rel, "src/") && !starts_with(rel, "bench/") &&
      !starts_with(rel, "examples/") && !starts_with(rel, "tools/")) {
    return;
  }
  if (rel == "src/common/strings.hpp" || rel == "src/common/strings.cpp") return;
  static const std::regex kLenient(
      R"(\b(?:sto(?:i|l|ll|ul|ull|f|d|ld)|strto\w*|ato(?:i|l|ll|f))\s*\()");
  scan_lines(code, kLenient, "lenient-number-parse",
             "lenient number parse (accepts a sign, blanks and trailing junk); "
             "use parse_number from common/strings.hpp",
             rel, allowed, findings);
}

// --- driver -----------------------------------------------------------------

/// Lints one file; returns false on IO failure.
bool lint_file(const fs::path& path, const std::string& rel,
               std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dhtidx_lint: cannot read " << path.string() << "\n";
    return false;
  }
  std::vector<std::string> raw;
  for (std::string line; std::getline(in, line);) raw.push_back(std::move(line));

  const Suppressions allowed = parse_suppressions(
      rel, strip_code(raw, Strip::kStringsOnly), findings);
  const std::vector<std::string> code =
      strip_code(raw, Strip::kCommentsAndStrings);

  check_banned_random(rel, code, allowed, findings);
  check_hot_path_map(rel, code, allowed, findings);
  check_ledger_discipline(rel, code, allowed, findings);
  check_query_by_value(rel, code, allowed, findings);
  check_unguarded_mutex(rel, code, allowed, findings);
  check_pragma_once(rel, raw, allowed, findings);
  check_lenient_number_parse(rel, code, allowed, findings);
  return true;
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

/// `path` relative to `root` with forward slashes, or empty when `path` is
/// outside `root` or cannot be resolved. Each filesystem call gets its own
/// error check so an early failure is not masked by a later success.
std::string relative_key(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path canon_path = fs::weakly_canonical(path, ec);
  if (ec) return {};
  const fs::path canon_root = fs::weakly_canonical(root, ec);
  if (ec) return {};
  const fs::path rel = fs::relative(canon_path, canon_root, ec);
  if (ec || rel.empty() || rel.begin()->string() == "..") return {};
  return rel.generic_string();
}

int usage(std::ostream& out, int exit_code) {
  out << "usage: dhtidx_lint [--root DIR] [--recurse] [--list] [files...]\n"
         "  --root DIR   classify paths relative to DIR (default: .)\n"
         "  --recurse    lint every *.cpp/*.hpp under "
         "DIR/{src,tools,tests,bench,examples}\n"
         "  --list       print the check names and exit\n";
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool recurse = false;
  std::vector<fs::path> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const CheckInfo& check : kChecks) {
        std::cout << check.name << "\t" << check.summary << "\n";
      }
      return 0;
    }
    if (arg == "--recurse") {
      recurse = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) return usage(std::cerr, 2);
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (starts_with(arg, "--")) {
      std::cerr << "dhtidx_lint: unknown option " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      files.emplace_back(arg);
    }
  }

  if (!fs::is_directory(root)) {
    std::cerr << "dhtidx_lint: --root " << root.string()
              << " is not a directory\n";
    return 2;
  }
  // Files the user named on the command line get a warning when they cannot
  // be classified; files found by --recurse are always under the root.
  const std::set<fs::path> explicit_files(files.begin(), files.end());
  if (recurse) {
    // The same directories CI lints — every tree that holds tracked C++ — so
    // the RealTreeLintsClean self-test and the CI gate see one file set.
    for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
      const fs::path sub = root / dir;
      if (!fs::is_directory(sub)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(sub)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          files.push_back(entry.path());
        }
      }
    }
  }
  if (files.empty()) {
    std::cerr << "dhtidx_lint: no input files (pass files or --recurse)\n";
    return usage(std::cerr, 2);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  bool io_error = false;
  for (const fs::path& file : files) {
    if (!lintable(file)) continue;
    const std::string rel = relative_key(file, root);
    if (rel.empty()) {  // outside the root: no rules apply
      if (explicit_files.count(file) > 0) {
        std::cerr << "dhtidx_lint: warning: " << file.string()
                  << " resolves outside --root " << root.string()
                  << "; skipped\n";
      }
      continue;
    }
    // The fixture tree is deliberately full of violations; it only lints when
    // --root points inside it (the tests do exactly that).
    if (rel.find("lint_fixtures/") != std::string::npos) continue;
    if (!lint_file(file, rel, findings)) io_error = true;
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.check) < std::tie(b.file, b.line, b.check);
  });
  for (const Finding& finding : findings) {
    std::cout << finding.file << ":" << finding.line << ": [" << finding.check
              << "] " << finding.message << "\n";
  }
  if (io_error) return 2;
  if (!findings.empty()) {
    std::cout << "dhtidx_lint: " << findings.size() << " finding(s)\n";
    return 1;
  }
  return 0;
}
