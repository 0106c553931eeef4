//===- support/CommandLine.h - Minimal flag parsing ------------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny --name=value flag parser shared by the bench and example binaries
/// so every experiment can scale trial counts and workload sizes from the
/// command line without pulling in a heavyweight dependency. On top of the
/// raw FlagSet sits OptionRegistry: binaries declare their flags once
/// (name, default, help line), and the registry parses argv against the
/// declarations, rejects unknown flags, and generates --help output --
/// so the bench drivers and tools/racedetect no longer hand-roll usage
/// text that drifts from the flags they actually read.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SUPPORT_COMMANDLINE_H
#define PACER_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pacer {

/// Parses "--name=value" and bare "--name" (boolean true) arguments.
/// Unknown positional arguments are collected and retrievable.
class FlagSet {
public:
  /// Parses \p Argv. Aborts with a usage message on malformed flags.
  FlagSet(int Argc, const char *const *Argv);

  /// Returns the integer value of flag \p Name, or \p Default if absent.
  int64_t getInt(const std::string &Name, int64_t Default) const;

  /// Returns the double value of flag \p Name, or \p Default if absent.
  double getDouble(const std::string &Name, double Default) const;

  /// Returns the string value of flag \p Name, or \p Default if absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;

  /// Returns true if flag \p Name is present (with any value) and not "0"
  /// or "false"; \p Default if absent.
  bool getBool(const std::string &Name, bool Default) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Returns true if the flag was explicitly provided.
  bool has(const std::string &Name) const;

private:
  const std::string *find(const std::string &Name) const;

  std::vector<std::pair<std::string, std::string>> Flags;
  std::vector<std::string> Positional;
};

/// Declarative flag registry: declare options once, parse argv against
/// them, and get --help generated from the declarations. Unknown --flags
/// are an error (typos no longer silently fall back to defaults).
class OptionRegistry {
public:
  /// \p Usage is the one-line synopsis printed at the top of --help,
  /// e.g. "racedetect [options] TRACE...".
  explicit OptionRegistry(std::string Usage) : Usage(std::move(Usage)) {}

  OptionRegistry &addInt(const std::string &Name, int64_t Default,
                         const std::string &Help);
  OptionRegistry &addDouble(const std::string &Name, double Default,
                            const std::string &Help);
  OptionRegistry &addString(const std::string &Name,
                            const std::string &Default,
                            const std::string &Help);
  /// Boolean flag, false unless given (bare "--name" or "--name=1").
  OptionRegistry &addFlag(const std::string &Name, const std::string &Help);

  /// Parses \p Argv. Returns false if --help was requested (printed to
  /// stdout) or an undeclared flag was present (error printed to stderr);
  /// callers should exit with helpRequested() ? 0 : 2.
  bool parse(int Argc, const char *const *Argv);

  bool helpRequested() const { return HelpRequested; }

  int64_t getInt(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  std::string getString(const std::string &Name) const;
  bool getBool(const std::string &Name) const;

  /// True if integer option \p Name lies in [Min, Max]; otherwise prints
  /// an error naming the flag to stderr and returns false (callers exit
  /// 2). Lets a tool reject a value before a narrowing cast wraps it.
  bool intInRange(const std::string &Name, int64_t Min, int64_t Max) const;

  /// The double-valued counterpart of intInRange(): true if option
  /// \p Name lies in [Min, Max]. NaN lies in no range.
  bool doubleInRange(const std::string &Name, double Min, double Max) const;

  /// True if the flag was explicitly provided on the command line.
  bool has(const std::string &Name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Writes the generated help text.
  void printHelp(std::FILE *Out) const;

private:
  enum class Kind : uint8_t { Int, Double, String, Flag };

  struct Option {
    std::string Name;
    Kind Type;
    std::string Help;
    int64_t IntDefault = 0;
    double DoubleDefault = 0.0;
    std::string StringDefault;
  };

  const Option *findOption(const std::string &Name) const;
  const std::string *findValue(const std::string &Name) const;

  std::string Usage;
  std::vector<Option> Options;
  std::vector<std::pair<std::string, std::string>> Values;
  std::vector<std::string> Positional;
  bool HelpRequested = false;
};

} // namespace pacer

#endif // PACER_SUPPORT_COMMANDLINE_H
