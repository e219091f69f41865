#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cache-read-zipf --seed 1 --seconds 10 --trace 0

The benchmark is the Go module in this directory. It is built from source
into the build directory ($CARGO_TARGET_DIR, default .bench_build, relative
to the repository root) with the Go build cache kept there too, then run
with the given arguments. The last line of its output is the JSON result.
The exit status is the benchmark's, or 1 if the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

# A run measures for at most 60 s plus set-up; this stops a hung one well
# inside the three minutes a run may take.
RUN_TIMEOUT_S = 175


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOPATH=str(build / "gopath"),
        GOMODCACHE=str(build / "gopath" / "pkg" / "mod"),
        GOTMPDIR=str(build / "tmp"),
        # The go command keeps its settings and telemetry under the user
        # config directory; keep them inside the build directory.
        XDG_CONFIG_HOME=str(build / "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    binary = build / "perfbench"
    try:
        subprocess.run(["go", "build", "-o", str(binary), "."], cwd=here, env=env, check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = [str(binary), *sys.argv[1:], "--trace-dir", str(build / "traces")]
    try:
        return subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
