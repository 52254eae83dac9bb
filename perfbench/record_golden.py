"""Write perfbench/golden.json from the current sources.

Run from the root of a checkout, only when an exact output of slopebound is
meant to change: ``python3 perfbench/record_golden.py``. The digests cover
the profiles and constants every check compares against, the reports of a
sample of operations at the golden seed, and the stdout of the CLI calls
whose inputs do not depend on the seed.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for name in ("chain", "corollary", "large-t", "cli-cold"):
        wl = workloads.make_workload(name, workloads.GOLDEN_SEED, HERE / "out")
        wl.setup()
        entry = {"references": wl.prepare_checks({"stdout": {}})}
        if name == "cli-cold":
            entry["stdout"] = {}
            for _, key, args in wl.commands[:4]:
                proc = subprocess.run([sys.executable, "-c", workloads.CLI_ENTRY, *args], capture_output=True,
                                      text=True, env=workloads.child_env(), timeout=120, check=True)
                entry["stdout"][key] = hashlib.sha256(proc.stdout.encode()).hexdigest()
        else:
            entry["digest"] = workloads.digest(wl.golden_lines())
        golden[name] = entry
        print(name, entry)
    workloads.GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
