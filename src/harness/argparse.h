// ArgParser: one tiny declarative CLI parser for the harness tools.
//
// Every tool under tools/ used to hand-roll its own argv loop — four
// slightly different flag grammars, four hand-maintained usage strings.
// ArgParser replaces them: a tool declares its flags, valued options, and
// ordered positionals once (each with help text), and gets
//
//  * a single left-to-right parse over argv (flags and positionals may
//    interleave, exactly like the hand-rolled loops accepted),
//  * uniform `--help` with generated usage/option/positional sections,
//  * uniform error reporting: unknown flags, missing option values, and
//    unparseable values print a one-line error plus the usage to stderr
//    and fail the parse (callers exit 2, the historical convention).
//
// The shared tool surface (--seed/--workers/--json/--out) is declared once
// via CommonCliArgs::add_to so every tool spells it identically.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace l96::harness {

class ArgParser {
 public:
  /// `prog` names the binary in usage; `summary` is the one-line
  /// description printed at the top of --help.
  ArgParser(std::string prog, std::string summary);

  /// Boolean flag `--name` (no value); sets *out to true when present.
  void add_flag(const std::string& name, const std::string& help, bool* out);

  /// Valued option `--name <value_name>`; the value is the next argv
  /// token.  Overloads parse into the pointee's type; numeric values must
  /// consume the whole token.
  void add_option(const std::string& name, const std::string& value_name,
                  const std::string& help, std::string* out);
  void add_option(const std::string& name, const std::string& value_name,
                  const std::string& help, std::uint64_t* out);
  void add_option(const std::string& name, const std::string& value_name,
                  const std::string& help, unsigned* out);
  void add_option(const std::string& name, const std::string& value_name,
                  const std::string& help, double* out);
  /// Custom-validated valued option: `set` parses the token; returning
  /// false fails the parse with the uniform invalid-value error.
  void add_option(const std::string& name, const std::string& value_name,
                  const std::string& help,
                  std::function<bool(const std::string&)> set);

  /// Ordered positional (all positionals are optional — every tool has
  /// defaults).  `set` parses/validates the token; returning false fails
  /// the parse with a uniform error naming the positional.
  void add_positional(const std::string& name, const std::string& help,
                      std::function<bool(const std::string&)> set);

  /// Parse argv.  Returns true when the tool should proceed; false when it
  /// should exit (help_shown() distinguishes `--help`, exit 0, from a
  /// parse error, exit 2).  Errors go to `err`; help goes to stdout.
  bool parse(int argc, char** argv, std::ostream& err);
  bool parse(int argc, char** argv);  ///< errors to std::cerr

  bool help_shown() const noexcept { return help_shown_; }
  /// The generated help text (usage, options, positionals).
  std::string help() const;

 private:
  struct Opt {
    std::string name;        // includes the leading "--"
    std::string value_name;  // empty for flags
    std::string help;
    bool* flag = nullptr;
    std::function<bool(const std::string&)> set;  // valued options
  };
  struct Pos {
    std::string name;
    std::string help;
    std::function<bool(const std::string&)> set;
  };

  void add_valued(const std::string& name, const std::string& value_name,
                  const std::string& help,
                  std::function<bool(const std::string&)> set);

  std::string prog_;
  std::string summary_;
  std::vector<Opt> opts_;
  std::vector<Pos> pos_;
  bool help_shown_ = false;
};

/// Whole-token numeric parses, shared by add_option and the tools' own
/// positional and custom-option lambdas: the token must be a decimal
/// number with nothing around it ("8x", " 8", "abc" and "" fail) that fits
/// in T; unsigned parses must start with a digit (no sign: "+8" and "-8"
/// fail), double parses may carry a '-' but not a '+'.  *out is written
/// only on success.
template <typename T>
bool parse_unsigned(const std::string& s, T* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (v > std::numeric_limits<T>::max()) return false;
  *out = static_cast<T>(v);
  return true;
}
bool parse_double(const std::string& s, double* out);

/// The flag surface every harness tool shares, declared in one place.
struct CommonCliArgs {
  std::uint64_t seed = 1;
  unsigned workers = 0;  ///< 0 = hardware concurrency
  bool json = false;     ///< emit the JSON section to stdout
  std::string out;       ///< also write the JSON section to this path

  void add_to(ArgParser& parser);
};

}  // namespace l96::harness
