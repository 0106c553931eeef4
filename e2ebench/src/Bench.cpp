//===- e2ebench/src/Bench.cpp - Shared benchmark types --------------------==//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace pacer;
using namespace pacer::e2e;

const std::vector<ConfigDef> &e2e::sweepConfigs() {
  static const std::vector<ConfigDef> Configs = {
      {"pacer_r0", DetectorKind::Pacer, 0.0, true},
      {"pacer_r1", DetectorKind::Pacer, 0.01, false},
      {"pacer_r3", DetectorKind::Pacer, 0.03, true},
      {"pacer_r10", DetectorKind::Pacer, 0.10, false},
      {"pacer_r100", DetectorKind::Pacer, 1.0, true},
      {"fasttrack", DetectorKind::FastTrack, 1.0, true},
      {"generic", DetectorKind::Generic, 1.0, true},
  };
  return Configs;
}

const ConfigDef &e2e::configNamed(const std::string &Name) {
  for (const ConfigDef &Config : sweepConfigs())
    if (Name == Config.Name)
      return Config;
  std::fprintf(stderr, "internal error: no config %s\n", Name.c_str());
  std::abort();
}

AnalysisRequest e2e::requestFor(const ConfigDef &Config, unsigned Shards) {
  AnalysisRequest Request;
  switch (Config.Kind) {
  case DetectorKind::Pacer:
    Request.Setup = pacerSetup(Config.Rate);
    Request.Setup.Sampling.PeriodBytes = 256 * 1024;
    break;
  case DetectorKind::FastTrack:
    Request.Setup = fastTrackSetup();
    break;
  default:
    Request.Setup = genericSetup();
    break;
  }
  Request.Setup.Shards = Shards;
  Request.Seed = 1;
  return Request;
}

uint64_t Outcome::dynamicRaces() const {
  uint64_t Total = 0;
  for (const auto &[Key, Count] : Races)
    Total += Count;
  return Total;
}

bool Outcome::operator==(const Outcome &Other) const {
  return Races == Other.Races && Boundaries == Other.Boundaries &&
         std::memcmp(&Stats, &Other.Stats, sizeof(Stats)) == 0;
}

Outcome e2e::outcomeOf(const AnalysisResult &Result) {
  Outcome O;
  O.Races.insert(Result.Races.begin(), Result.Races.end());
  O.Stats = Result.Stats;
  O.Boundaries = Result.Boundaries;
  return O;
}

void Gate::fail(const std::string &Why) {
  if (++Failed <= 20)
    std::fprintf(stderr, "check failed: %s\n", Why.c_str());
}

void Metrics::add(const std::string &Name, double Value, const char *Unit) {
  Entries.push_back({Name, Value, Unit});
}

void Metrics::print() const {
  for (const Entry &E : Entries)
    std::printf("%-44s %14.6g %s\n", E.Name.c_str(), E.Value, E.Unit);
}

std::string Metrics::json() const {
  std::string Out = "{";
  char Buf[96];
  for (size_t I = 0; I < Entries.size(); ++I) {
    const double Value = std::isfinite(Entries[I].Value) ? Entries[I].Value : 0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Out += (I ? ", \"" : "\"") + Entries[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Entries[I].Unit + "\"}";
  }
  return Out + "}";
}
