/**
 * @file
 * nvalloc_chaos: seeded chaos soak for the hardening subsystem.
 *
 * Repeatedly opens a heap, churns it, injects one trouble event per
 * round — crashes, torn transactions and media poison from the fault
 * injector, plus deliberate application corruption (double/wild/
 * misaligned/cross-heap frees, canary stomps, guard overflows,
 * quarantine stomps, header smashes, KV record/bucket stomps through
 * the src/kv service) — and asserts after every round that the event
 * was detected and contained (see tools/chaos_harness.h for the
 * contract).
 *
 * With --pool the same trouble classes run against the hostile member
 * of a 4-tenant HeapPool: the victim must be detected (health machine
 * + patrol scrub) and contained while its three siblings keep serving
 * with zero failed allocations (see tools/pool_chaos_harness.h).
 *
 * Deterministic for a given --seed. Exit status: 0 = every round
 * contained, 1 = a containment failure (printed), 2 = usage error.
 *
 *   nvalloc_chaos                          # 200 rounds, seed 1
 *   nvalloc_chaos --rounds 50 --seed 7     # CI smoke
 *   nvalloc_chaos --gc --policy quarantine # NVAlloc-GC variant
 *   nvalloc_chaos --pool --rounds 200      # pool containment soak
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "chaos_harness.h"
#include "cli_args.h"
#include "pool_chaos_harness.h"

using namespace nvalloc;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --rounds N     soak rounds (default 200)\n"
        "  --seed N       RNG seed (default 1); runs are deterministic\n"
        "  --ops N        mutator operations per round (default 256)\n"
        "  --device-mb N  emulated device size in MB (default 256)\n"
        "  --gc           soak the NVAlloc-GC variant\n"
        "  --policy P     hardening policy: report|quarantine\n"
        "  --pool         4-tenant pool containment soak (1 hostile\n"
        "                 tenant vs 3 serving siblings)\n"
        "  --verbose      log every round and skipped injection\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, ChaosOptions &o, bool &pool)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--gc") {
            o.gc = true;
        } else if (a == "--pool") {
            pool = true;
        } else if (a == "--verbose") {
            o.verbose = true;
        } else if (a == "--rounds") {
            if (!parseCount(next(), o.rounds))
                return false;
        } else if (a == "--seed") {
            if (!parseCount(next(), o.seed))
                return false;
        } else if (a == "--ops") {
            if (!parseCount(next(), o.ops_per_round))
                return false;
        } else if (a == "--device-mb") {
            if (!parseCount(next(), o.device_mb))
                return false;
        } else if (a == "--policy") {
            const char *v = next();
            if (!v)
                return false;
            if (std::strcmp(v, "report") == 0)
                o.policy = HardeningPolicy::Report;
            else if (std::strcmp(v, "quarantine") == 0)
                o.policy = HardeningPolicy::Quarantine;
            else
                return false;
        } else {
            return false;
        }
    }
    return o.rounds > 0 && o.device_mb >= 64;
}

} // namespace

int
main(int argc, char **argv)
{
    ChaosOptions o;
    bool pool = false;
    if (!parseArgs(argc, argv, o, pool)) {
        usage(argv[0]);
        return 2;
    }

    if (pool) {
        PoolChaosHarness harness(o);
        bool ok = harness.runPool();
        std::printf("pool-chaos: %u round(s), seed %llu, %u tenant(s), "
                    "%s\n",
                    harness.roundsRun(), (unsigned long long)o.seed,
                    PoolChaosHarness::kTenants,
                    o.gc ? "NVAlloc-GC" : "NVAlloc-LOG");
        std::fputs(harness.summary().c_str(), stdout);
        if (!ok) {
            std::printf("pool-chaos: FAILED at %s\n",
                        harness.error().c_str());
            return 1;
        }
        std::printf("pool-chaos: all rounds contained, blast radius "
                    "confined to the hostile tenant\n");
        return 0;
    }

    ChaosHarness harness(o);
    bool ok = harness.run();

    std::printf("chaos: %u round(s), seed %llu, %s%s\n",
                harness.roundsRun(), (unsigned long long)o.seed,
                o.gc ? "NVAlloc-GC" : "NVAlloc-LOG",
                o.policy == HardeningPolicy::Quarantine
                    ? ", quarantine policy"
                    : "");
    std::fputs(harness.summary().c_str(), stdout);
    if (!ok) {
        std::printf("chaos: FAILED at %s\n", harness.error().c_str());
        return 1;
    }
    std::printf("chaos: all rounds contained\n");
    return 0;
}
