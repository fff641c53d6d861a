"""Record the reference outputs that run.py checks on the reference seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs the given workloads (default: all) at full size on the reference
seed and writes the fingerprint of every op's outputs to reference.json
next to this file, keeping the entries of workloads not named. Run it
only on a commit whose outputs are trusted; the file records what that
commit computed.
"""

import json
import sys
import tempfile

from run import HERE, WORK_DIR, load_program

# Cycles recorded per workload; only select_k, which draws a fresh seed per
# op, has new keys after the first.
RECORD_CYCLES = 12


def record(name: str) -> dict:
    from workloads import REFERENCE_SEED, WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        workload = WORKLOADS[name](REFERENCE_SEED, workdir)
        workload.setup()
        out = {}
        for i in range(RECORD_CYCLES):
            for op in workload.cycle(i):
                if op.key in out:
                    continue
                fp, problems = op.check(op.call())
                if problems:
                    raise SystemExit(f"{name} op {op.key}: {problems}")
                out[op.key] = fp
    return out


def main(names) -> int:
    load_program()
    from workloads import WORKLOADS

    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        data[name] = record(name)
        print(f"{name}: {len(data[name])} ops recorded")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
