"""Self-test of the benchmark's correctness checks.

Run from the repository root::

    python3 perfbench/selftest.py

Each workload first runs a few rounds against geomprod as it is, where no
operation may fail.  Then one library function at a time is replaced by a
stub that plants a wrong answer (a dropped row, a wrong verdict, altered CLI
output), and the same requests must now report failures.  A plant that goes
unnoticed means a check is vacuous; the script then exits with code 1.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import types

import run
import workloads
from tracing import NULL


def stub_api(geomprod, **overrides):
    """geomprod's public names, with ``overrides`` replacing some of them."""
    api = types.SimpleNamespace(**{name: getattr(geomprod, name) for name in geomprod.__all__})
    for name, fn in overrides.items():
        setattr(api, name, fn)
    return api


def failures(reqs: list, api) -> int:
    return run.measure(reqs, api, NULL, 0, 1)["failed"]


def plants(g) -> dict[str, dict]:
    """Per workload, the stubs that must each make some operation fail."""

    def drop_last(fn):
        return lambda *args: fn(*args)[:-1]

    def always_verified(ident):
        v = g.verify_identity(ident)
        return dataclasses.replace(v, verified=True)

    def always_pass(ident, cfg):
        return dataclasses.replace(g.numeric_check(ident, cfg), verdict="pass")

    def render_one_term_short(p, style="text"):
        text = g.render(p, style)
        return text.rsplit("*", 1)[0] if style == "text" else text

    return {
        "check-stream": {
            "verify_identity says verified": {"verify_identity": always_verified},
            "render drops a term": {"render": render_one_term_short},
        },
        "oracle-sweep": {"numeric_check says pass": {"numeric_check": always_pass}},
        "enumerate-grid": {
            "enumerate_family drops a row": {"enumerate_family": drop_last(g.enumerate_family)},
            "decompose drops a row": {"decompose": drop_last(g.decompose)},
        },
    }


def main() -> int:
    g = run.load_geomprod()
    ok = True
    for name, stubs in plants(g).items():
        reqs = workloads.BUILDERS[name](random.Random(f"selftest:{name}"), rounds=2)
        clean = failures(reqs, g)
        print(f"{name}: {clean} of {len(reqs)} failed against geomprod")
        ok &= clean == 0
        for label, overrides in stubs.items():
            planted = failures(reqs, stub_api(g, **overrides))
            print(f"{name}: {planted} of {len(reqs)} failed with '{label}'")
            ok &= planted > 0

    def noisy_main(argv):
        code = g.cli.main(argv)
        print()
        return code

    for label, main_fn, want_failures in (("geomprod", g.cli.main, False),
                                          ("main prints an extra line", noisy_main, True)):
        attempted, failed = run.cli_probe(random.Random("selftest:cli"), main_fn, NULL)
        print(f"cli: {failed} of {attempted} failed with {label}")
        ok &= (failed > 0) == want_failures

    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
