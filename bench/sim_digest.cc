// Prints the determinism digest of a fixed-seed scenario (see
// src/app/digest.h) and the schema hash of its stats keys. CI runs this
// twice and diffs the output; a mismatch means the simulation is no
// longer a pure function of its seed.
//
// Usage: sim_digest [--scenario two-host|capacity|pingpong|fleet|serving]
//                   [--seed N]
//                   [--duration-ms M] [--stats FILE] [--shards N]
//                   [--scheduler lowest-rtt|round-robin|redundant|backup-aware]
//
// --shards N (N >= 1) switches capacity to the sharded cell-ring variant
// driven by the multi-threaded ShardedEngine: bit-stable for a fixed N
// (CI runs each N twice and diffs), not comparable across N. The
// pingpong and fleet scenarios' digests ARE comparable across shard
// counts: CI diffs --shards 1/2(/4) against each other to pin
// epoch-barrier lockstep and island shard-locality respectively.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "app/digest.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  mptcp::DigestConfig cfg;
  std::string stats_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      cfg.duration = std::strtoull(argv[++i], nullptr, 10) *
                     mptcp::kMillisecond;
    } else if (std::strcmp(argv[i], "--stats") == 0 && i + 1 < argc) {
      stats_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scheduler") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      bool known = false;
      for (mptcp::SchedulerPolicy p :
           {mptcp::SchedulerPolicy::kLowestRtt,
            mptcp::SchedulerPolicy::kRoundRobin,
            mptcp::SchedulerPolicy::kRedundant,
            mptcp::SchedulerPolicy::kBackupAware}) {
        if (mptcp::to_string(p) == name) {
          cfg.scheduler = p;
          known = true;
        }
      }
      if (!known) {
        std::fprintf(stderr, "unknown scheduler '%s'\n", name);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "two-host") == 0) {
        cfg.scenario = mptcp::DigestScenario::kTwoHost;
      } else if (std::strcmp(name, "capacity") == 0) {
        cfg.scenario = mptcp::DigestScenario::kCapacity;
      } else if (std::strcmp(name, "pingpong") == 0) {
        cfg.scenario = mptcp::DigestScenario::kPingPong;
      } else if (std::strcmp(name, "fleet") == 0) {
        cfg.scenario = mptcp::DigestScenario::kFleet;
      } else if (std::strcmp(name, "serving") == 0) {
        cfg.scenario = mptcp::DigestScenario::kServing;
      } else {
        std::fprintf(stderr, "unknown scenario '%s'\n", name);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      cfg.shards = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scenario two-host|capacity|pingpong|fleet|serving] "
                   "[--seed N] [--duration-ms M] [--stats FILE] "
                   "[--shards N] "
                   "[--scheduler lowest-rtt|round-robin|redundant|backup-aware]\n",
                   argv[0]);
      return 2;
    }
  }
  // Digests depend on the shard count, so a clamp here changes the
  // output on purpose (with a warning); pinned cross-machine comparisons
  // set MPTCP_ALLOW_OVERSUBSCRIBE to keep the requested count.
  cfg.shards = mptcp::bench::clamp_shards(cfg.shards);

  const mptcp::DigestResult r = mptcp::run_digest_scenario(cfg);
  std::printf("digest %s\n", mptcp::digest_hex(r.digest).c_str());
  std::printf("schema %s\n", mptcp::digest_hex(r.schema).c_str());
  std::printf("packets_hashed %llu\n",
              static_cast<unsigned long long>(r.packets_hashed));
  std::printf("bytes_delivered %llu\n",
              static_cast<unsigned long long>(r.bytes_delivered));

  if (!stats_path.empty()) {
    std::FILE* f = std::fopen(stats_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", stats_path.c_str());
      return 1;
    }
    std::fputs(r.stats_json.c_str(), f);
    std::fclose(f);
  }

  // A run that moved no data hashed only handshake traffic -- almost
  // certainly a harness regression rather than a real scenario.
  return r.bytes_delivered > 0 ? 0 : 1;
}
