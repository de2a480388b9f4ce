#!/usr/bin/env python3
"""Compare two dvebench reports (written by run.py to <build dir>/results/).

    python3 dvebench/compare.py BASE.json NEW.json

Prints each metric of NEW as a share of BASE, and whether the two runs
produced the same sim_digest. Results from different builds or hosts are not
comparable on the host clock: when build type, compiler flags, compiler,
nproc or CPU model differ, the differing fields are flagged and no host
metric is compared (exit code 2).
"""
import json
import sys

HOST_UNITS = {"s", "ns", "s/sim_s", "MiB"}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    differ = [k for k in base["provenance"]
              if base["provenance"][k] != new["provenance"].get(k)]
    for k in differ:
        print("FLAG provenance %s differs: %r vs %r"
              % (k, base["provenance"][k], new["provenance"].get(k)))
    if base["seed"] != new["seed"]:
        print("note: seeds differ (%s vs %s), so sim results are expected to differ"
              % (base["seed"], new["seed"]))
    same_sim = base["sim_digest"] == new["sim_digest"]
    print("sim_digest %s (%s vs %s)" % ("identical" if same_sim else "DIFFERS",
                                        base["sim_digest"], new["sim_digest"]))
    old_m = base["result"]["metrics"]
    for name, m in new["result"]["metrics"].items():
        if name not in old_m:
            continue
        if differ and m["unit"] in HOST_UNITS:
            print("%-34s not compared (host metric, provenance differs)" % name)
            continue
        a, b = old_m[name]["value"], m["value"]
        share = "%.4f" % (b / a) if a else "n/a"
        print("%-34s %16.6g -> %16.6g %-8s new/base %s" % (name, a, b, m["unit"], share))
    return 2 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
