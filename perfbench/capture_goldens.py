"""Write perfbench/goldens.json from the current source.

    python3 perfbench/capture_goldens.py

Run once, at a commit whose outputs are the reference; every benchmark
run then checks its outputs against the file.  Stores D and r of every
landscape cell, D and r of the golden param-scan draws of the default
seed, and the sha256 of every CSV one cli-suite pass writes.
"""

from __future__ import annotations

import json

import boot


def capture() -> dict:
    import measure
    import workloads

    workdir = boot.ROOT / ".bench_run" / "capture"
    goldens: dict = {
        "source": {
            "git_commit": measure.git_commit(),
            "source_sha256": measure.source_digest(),
        },
        "tolerance": {"rtol": workloads.RTOL, "atol": workloads.ATOL},
        "default_seed": workloads.DEFAULT_SEED,
    }
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.DEFAULT_SEED, {}, workdir)
        workload.prepare()
        ops = workload.warmup() if name == "param-scan" else workload.pass_ops(0)
        try:
            goldens[name] = {}
            for op in ops:
                output = op.run()
                if getattr(output, "code", 0) != 0:
                    raise RuntimeError(f"{op.key} exited with code {output.code}")
                goldens[name][op.key] = workload.observe(op, output)
        finally:
            workload.close()
    return goldens


if __name__ == "__main__":
    boot.prepare()
    boot.GOLDENS.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {boot.GOLDENS}")
