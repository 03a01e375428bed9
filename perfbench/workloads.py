"""The benchmark's workloads: which scenario a campaign runs and how long.

The timed campaigns of a workload replay one fixed demand, the scenario
file's own seed: campaign cost depends so strongly on the demand draw (TFMP
drop cascades, carried-over backlog) that campaigns on fresh demand vary by
a third or more, which would drown any change to the program. The run's
``--seed`` instead drives one extra campaign on fresh demand, which is
checked for correctness and reported, but not gated.
"""
from __future__ import annotations

from dataclasses import dataclass

MODES = ("fair-coplan", "coplan", "tfmp")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # scenario file, relative to the checkout root
    days: int
    periods_per_day: int | None  # None keeps the scenario's own value


WORKLOADS = {
    w.name: w for w in (
        # Shipped desk scenario: ~220 MILPs per day of ~60 variables each,
        # so per-call HiGHS start-up and step2 dominate, TFMP drop cascades
        # are short, and 2 days x 3 modes give six independent units.
        Workload(
            name="desk-campaign",
            config="configs/desk8x8.yaml",
            days=2,
            periods_per_day=None,
        ),
        # First period of the shipped full15x15 day: few large models
        # (choice-setting ~6,400 x 1,200, fixed-route ~1,200 x 2,100) where
        # dense matrix assembly is a third of the time, and a single day, so
        # day-level parallelism has nothing to split. Longer slices do not
        # fit: eight periods take ~130 s and 3 GB per campaign, and three
        # periods (~8 s) leave only ~5 replays a run, whose medians moved
        # by up to 27 % between runs on a shared two-core machine.
        Workload(
            name="full-slice",
            config="configs/full15x15.yaml",
            days=1,
            periods_per_day=1,
        ),
    )
}
