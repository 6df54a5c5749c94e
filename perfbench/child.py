"""One benchmark operation in a fresh interpreter.

Imports fhnrds from the checkout's `src/`, resolves and validates the
config the way `fhnrds.cli.main` does, and stamps the end of set-up with
`time.perf_counter()` (CLOCK_MONOTONIC, so the parent can subtract its own
stamp taken before the process started).  Unless `--setup-only` is given it
then times `fhnrds.cli.main(argv)`, optionally under the span recorder, and
writes a JSON result.

    python3 perfbench/child.py --result R.json [--setup-only] [--trace T.csv] -- <fhnrds argv>
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    import fhnrds.cli
    from fhnrds.config import load_config, resolve

    if Path(fhnrds.__file__).resolve().parent != ROOT / "src" / "fhnrds":
        raise SystemExit(f"imported fhnrds from {fhnrds.__file__}, not from the checkout")
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cli_args = fhnrds.cli.build_parser().parse_args(argv)
    cfg = load_config(cli_args.config)
    resolve({**dict(cfg.values), "seed": cli_args.seed})
    result = {"setup_end": time.perf_counter()}
    if not args.setup_only:
        start = time.perf_counter()
        result["status"] = fhnrds.cli.main(argv)
        result["run_s"] = time.perf_counter() - start
        if tracer:
            tracer.write(args.trace)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
