//===- support/CommandLine.cpp --------------------------------------------==//

#include "support/CommandLine.h"

#include "support/Error.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pacer;

FlagSet::FlagSet(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--", 2) != 0) {
      Positional.emplace_back(Arg);
      continue;
    }
    const char *Body = Arg + 2;
    const char *Eq = std::strchr(Body, '=');
    if (Eq)
      Flags.emplace_back(std::string(Body, Eq), std::string(Eq + 1));
    else
      Flags.emplace_back(std::string(Body), std::string("1"));
  }
}

const std::string *FlagSet::find(const std::string &Name) const {
  // Last occurrence wins so callers can override defaults appended earlier.
  const std::string *Result = nullptr;
  for (const auto &[Key, Value] : Flags)
    if (Key == Name)
      Result = &Value;
  return Result;
}

bool FlagSet::has(const std::string &Name) const {
  return find(Name) != nullptr;
}

int64_t FlagSet::getInt(const std::string &Name, int64_t Default) const {
  const std::string *Value = find(Name);
  if (!Value)
    return Default;
  char *End = nullptr;
  long long Parsed = std::strtoll(Value->c_str(), &End, 10);
  if (End == Value->c_str() || *End != '\0')
    fatalError("malformed integer flag value");
  return Parsed;
}

double FlagSet::getDouble(const std::string &Name, double Default) const {
  const std::string *Value = find(Name);
  if (!Value)
    return Default;
  char *End = nullptr;
  double Parsed = std::strtod(Value->c_str(), &End);
  if (End == Value->c_str() || *End != '\0')
    fatalError("malformed double flag value");
  return Parsed;
}

std::string FlagSet::getString(const std::string &Name,
                               const std::string &Default) const {
  const std::string *Value = find(Name);
  return Value ? *Value : Default;
}

bool FlagSet::getBool(const std::string &Name, bool Default) const {
  const std::string *Value = find(Name);
  if (!Value)
    return Default;
  return *Value != "0" && *Value != "false";
}

OptionRegistry &OptionRegistry::addInt(const std::string &Name,
                                       int64_t Default,
                                       const std::string &Help) {
  Options.push_back({Name, Kind::Int, Help, Default, 0.0, {}});
  return *this;
}

OptionRegistry &OptionRegistry::addDouble(const std::string &Name,
                                          double Default,
                                          const std::string &Help) {
  Options.push_back({Name, Kind::Double, Help, 0, Default, {}});
  return *this;
}

OptionRegistry &OptionRegistry::addString(const std::string &Name,
                                          const std::string &Default,
                                          const std::string &Help) {
  Options.push_back({Name, Kind::String, Help, 0, 0.0, Default});
  return *this;
}

OptionRegistry &OptionRegistry::addFlag(const std::string &Name,
                                        const std::string &Help) {
  Options.push_back({Name, Kind::Flag, Help, 0, 0.0, {}});
  return *this;
}

const OptionRegistry::Option *
OptionRegistry::findOption(const std::string &Name) const {
  for (const Option &O : Options)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

const std::string *
OptionRegistry::findValue(const std::string &Name) const {
  // Last occurrence wins, matching FlagSet.
  const std::string *Result = nullptr;
  for (const auto &[Key, Value] : Values)
    if (Key == Name)
      Result = &Value;
  return Result;
}

bool OptionRegistry::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--", 2) != 0) {
      Positional.emplace_back(Arg);
      continue;
    }
    const char *Body = Arg + 2;
    const char *Eq = std::strchr(Body, '=');
    std::string Name = Eq ? std::string(Body, Eq) : std::string(Body);
    if (Name == "help") {
      HelpRequested = true;
      printHelp(stdout);
      return false;
    }
    if (!findOption(Name)) {
      std::fprintf(stderr, "unknown flag --%s\n\n", Name.c_str());
      printHelp(stderr);
      return false;
    }
    Values.emplace_back(std::move(Name),
                        Eq ? std::string(Eq + 1) : std::string("1"));
  }
  return true;
}

int64_t OptionRegistry::getInt(const std::string &Name) const {
  const Option *O = findOption(Name);
  if (!O)
    fatalError("getInt on undeclared option");
  const std::string *Value = findValue(Name);
  if (!Value)
    return O->IntDefault;
  char *End = nullptr;
  long long Parsed = std::strtoll(Value->c_str(), &End, 10);
  if (End == Value->c_str() || *End != '\0')
    fatalError("malformed integer flag value");
  return Parsed;
}

bool OptionRegistry::intInRange(const std::string &Name, int64_t Min,
                                int64_t Max) const {
  const int64_t Value = getInt(Name);
  if (Value >= Min && Value <= Max)
    return true;
  std::fprintf(stderr, "error: --%s=%lld out of range [%lld, %lld]\n",
               Name.c_str(), static_cast<long long>(Value),
               static_cast<long long>(Min), static_cast<long long>(Max));
  return false;
}

bool OptionRegistry::doubleInRange(const std::string &Name, double Min,
                                   double Max) const {
  const double Value = getDouble(Name);
  if (Value >= Min && Value <= Max)
    return true;
  std::fprintf(stderr, "error: --%s=%g out of range [%g, %g]\n", Name.c_str(),
               Value, Min, Max);
  return false;
}

double OptionRegistry::getDouble(const std::string &Name) const {
  const Option *O = findOption(Name);
  if (!O)
    fatalError("getDouble on undeclared option");
  const std::string *Value = findValue(Name);
  if (!Value)
    return O->DoubleDefault;
  char *End = nullptr;
  double Parsed = std::strtod(Value->c_str(), &End);
  if (End == Value->c_str() || *End != '\0')
    fatalError("malformed double flag value");
  return Parsed;
}

std::string OptionRegistry::getString(const std::string &Name) const {
  const Option *O = findOption(Name);
  if (!O)
    fatalError("getString on undeclared option");
  const std::string *Value = findValue(Name);
  return Value ? *Value : O->StringDefault;
}

bool OptionRegistry::getBool(const std::string &Name) const {
  if (!findOption(Name))
    fatalError("getBool on undeclared option");
  const std::string *Value = findValue(Name);
  if (!Value)
    return false;
  return *Value != "0" && *Value != "false";
}

bool OptionRegistry::has(const std::string &Name) const {
  return findValue(Name) != nullptr;
}

void OptionRegistry::printHelp(std::FILE *Out) const {
  std::fprintf(Out, "usage: %s\n\noptions:\n", Usage.c_str());
  for (const Option &O : Options) {
    std::string Left = "--" + O.Name;
    switch (O.Type) {
    case Kind::Int:
      Left += "=N";
      break;
    case Kind::Double:
      Left += "=X";
      break;
    case Kind::String:
      Left += "=S";
      break;
    case Kind::Flag:
      break;
    }
    std::fprintf(Out, "  %-22s %s", Left.c_str(), O.Help.c_str());
    switch (O.Type) {
    case Kind::Int:
      std::fprintf(Out, " (default %lld)",
                   static_cast<long long>(O.IntDefault));
      break;
    case Kind::Double:
      std::fprintf(Out, " (default %g)", O.DoubleDefault);
      break;
    case Kind::String:
      if (!O.StringDefault.empty())
        std::fprintf(Out, " (default %s)", O.StringDefault.c_str());
      break;
    case Kind::Flag:
      break;
    }
    std::fprintf(Out, "\n");
  }
  std::fprintf(Out, "  %-22s %s\n", "--help", "show this help");
}
