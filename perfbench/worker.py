"""One measured step of the benchmark, in a fresh process.

``setup``: time the package import, ``load_config``, ``load_corpus`` and
``build_gateway(config)`` with default arguments.

``cli``: call ``factgap.cli.main(argv)`` in-process with stdout and
stderr captured and time it. With ``--trace``, the wrappers in
``tracing.py`` are installed first and their spans are written to
``--spans`` after the call.

Either way the result (seconds, exit code, peak resident memory,
captured output) is written as JSON to ``--result``. Run from the root
of a checkout, for example::

    python3 perfbench/worker.py setup --config c.json --corpus corpus.json --result r.json
    python3 perfbench/worker.py cli --result r.json -- run --config c.json ...
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(config: str, corpus: str) -> dict:
    start = time.perf_counter()
    import factgap.cli  # noqa: F401  (the whole package, as the command line loads it)
    from factgap.config import build_gateway, load_config
    from factgap.dataset import load_corpus

    run_config = load_config(config)
    load_corpus(corpus)
    build_gateway(run_config)
    return {"seconds": time.perf_counter() - start}


def cli(argv: list[str], spans_path: str | None) -> dict:
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import factgap.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = factgap.cli.main(argv)
        except Exception:
            # An escaping exception is a failed command, which the output
            # check reports; it must not stop the benchmark.
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.write(Path(spans_path))
    return {"seconds": seconds, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark step")
    parser.add_argument("step", choices=("setup", "cli"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--corpus")
    parser.add_argument("--spans", help="trace the call and write spans here")
    own, cli_argv = sys.argv[1:], []
    if "--" in own:
        split = own.index("--")
        own, cli_argv = own[:split], own[split + 1 :]
    args = parser.parse_args(own)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if args.step == "setup":
        result = setup(args.config, args.corpus)
    else:
        result = cli(cli_argv, args.spans)
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
