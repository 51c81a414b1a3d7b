"""Set-up probe: one fresh interpreter doing a workload's set-up.

``python3 e2ebench/probe.py <workload>`` imports what the workload needs
and starts what it starts (for ``fleet``: the daemon and its warmed pool),
prints ``ready`` at the moment the first timed operation could begin,
then tears down and exits. ``run.py`` times launch-to-``ready`` several
times per run and reports the median as ``setup_s``.
"""

from __future__ import annotations

import sys


def main(workload: str) -> int:
    from common import code_salt, make_hermetic

    make_hermetic()
    if workload == "paper":
        import paper

        paper.experiment_calls()
        print("ready", flush=True)
        return 0
    if workload == "sweep":
        import repro.engine.plan  # noqa: F401
        import repro.orchestrator  # noqa: F401

        code_salt()
        print("ready", flush=True)
        return 0
    if workload == "fleet":
        import fleet
        import points
        import repro.orchestrator.serialize  # noqa: F401

        daemon = fleet.Daemon("fleet-probe")
        try:
            daemon.start()
            daemon.run_campaign("warmup", points.fleet_probe_points())
            print("ready", flush=True)
        finally:
            daemon.stop()
        return 0
    print(f"unknown workload {workload!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
