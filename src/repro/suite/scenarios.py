"""The named end-to-end scenario registry.

A :class:`Scenario` pins one complete experiment — a workload, a
platform, a relative timing constraint and a partitioning algorithm —
under a stable name, so a result recorded today is comparable with the
same scenario re-run against any future version of the code.  The
default suite spans the paper's applications (OFDM, JPEG), the two
kernel-rich communications/audio workloads added alongside it
(FIR/IIR filter bank, Viterbi trellis decoder), and the synthetic
families across their skew / communication-intensity / size axes, with
annealing and the closed-form exact search next to the paper's greedy
loop.

Scenario names are the primary key of the persistent result store:
renaming one orphans its history, so add new names rather than repurpose
old ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..explore.space import PlatformSpec, WorkloadSpec
from ..job import Job
from ..search.base import AlgorithmSpec


@dataclass(frozen=True)
class Scenario:
    """One named, fully pinned experiment."""

    name: str
    workload: WorkloadSpec
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    constraint_fraction: float = 0.5
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec.greedy)
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        _ = self.job  # the job checks the fraction

    @property
    def job(self) -> Job:
        return Job(
            self.workload, self.platform, self.algorithm,
            constraint_fractions=(self.constraint_fraction,),
        )

    def describe(self) -> str:
        return self.job.describe()


#: name -> Scenario; populated below, ordered by registration.
SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the global registry (names are unique)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"duplicate scenario name {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None


def select_scenarios(
    names: list[str] | None = None, tag: str | None = None
) -> list[Scenario]:
    """The scenarios to run: all by default, else by name list / tag."""
    if names:
        chosen = [get_scenario(name) for name in names]
    else:
        chosen = list(SCENARIOS.values())
    if tag is not None:
        chosen = [s for s in chosen if tag in s.tags]
    return chosen


def default_suite() -> list[Scenario]:
    """Every registered scenario, in registration order."""
    return list(SCENARIOS.values())


# ----------------------------------------------------------------------
# The default suite
# ----------------------------------------------------------------------
# Paper applications (§4 platform, the Table 2/3 A=1500 column).
register_scenario(
    Scenario(
        name="ofdm-greedy",
        workload=WorkloadSpec.ofdm(),
        constraint_fraction=0.5,
        tags=("paper", "ofdm"),
    )
)
register_scenario(
    Scenario(
        name="ofdm-tight-annealing",
        workload=WorkloadSpec.ofdm(),
        constraint_fraction=0.25,
        algorithm=AlgorithmSpec.annealing(seed=11),
        tags=("paper", "ofdm", "heuristic"),
    )
)
register_scenario(
    Scenario(
        name="jpeg-greedy",
        workload=WorkloadSpec.jpeg(),
        constraint_fraction=0.6,
        tags=("paper", "jpeg"),
    )
)
# The closed form replaced multi-start here and in
# filterbank-wide-multistart with the same results; `suite compare`
# matches on the names, so they stay.
register_scenario(
    Scenario(
        name="jpeg-multistart",
        workload=WorkloadSpec.jpeg(),
        constraint_fraction=0.6,
        algorithm=AlgorithmSpec.exhaustive(),
        tags=("paper", "jpeg", "exact"),
    )
)

# New kernel-rich workloads.
register_scenario(
    Scenario(
        name="filterbank-greedy",
        workload=WorkloadSpec.filterbank(),
        constraint_fraction=0.55,
        tags=("new-workload", "filterbank"),
    )
)
register_scenario(
    Scenario(
        name="filterbank-wide-multistart",
        workload=WorkloadSpec.filterbank(channels=12, taps=24),
        constraint_fraction=0.5,
        algorithm=AlgorithmSpec.exhaustive(),
        tags=("new-workload", "filterbank", "exact"),
    )
)
register_scenario(
    Scenario(
        name="viterbi-greedy",
        workload=WorkloadSpec.viterbi(),
        constraint_fraction=0.5,
        tags=("new-workload", "viterbi"),
    )
)
register_scenario(
    Scenario(
        name="viterbi-deep-annealing",
        workload=WorkloadSpec.viterbi(states=32, stages=96),
        constraint_fraction=0.45,
        algorithm=AlgorithmSpec.annealing(seed=7),
        tags=("new-workload", "viterbi", "heuristic"),
    )
)

# Synthetic family — weight-skew axis.
register_scenario(
    Scenario(
        name="synth-skewed",
        workload=WorkloadSpec.synthetic(32, seed=1, weight_skew=3.0),
        constraint_fraction=0.6,
        tags=("synthetic", "skew"),
    )
)
register_scenario(
    Scenario(
        name="synth-flat",
        workload=WorkloadSpec.synthetic(32, seed=1, weight_skew=1.0),
        constraint_fraction=0.6,
        tags=("synthetic", "skew"),
    )
)

# Synthetic family — communication-intensity axis.
register_scenario(
    Scenario(
        name="synth-comm-light",
        workload=WorkloadSpec.synthetic(24, seed=2, comm_intensity=0.1),
        constraint_fraction=0.5,
        tags=("synthetic", "comm"),
    )
)
register_scenario(
    Scenario(
        name="synth-comm-heavy",
        workload=WorkloadSpec.synthetic(24, seed=2, comm_intensity=1.5),
        constraint_fraction=0.5,
        tags=("synthetic", "comm"),
    )
)

# Synthetic family — size axis.
register_scenario(
    Scenario(
        name="synth-small",
        workload=WorkloadSpec.synthetic(12, seed=4),
        constraint_fraction=0.5,
        tags=("synthetic", "size"),
    )
)
register_scenario(
    Scenario(
        name="synth-large",
        workload=WorkloadSpec.synthetic(96, seed=4),
        constraint_fraction=0.5,
        tags=("synthetic", "size"),
    )
)
register_scenario(
    Scenario(
        name="synth-large-annealing",
        workload=WorkloadSpec.synthetic(96, seed=4),
        constraint_fraction=0.5,
        algorithm=AlgorithmSpec.annealing(seed=13),
        tags=("synthetic", "size", "heuristic"),
    )
)

# Exact search — certified optima from the closed form.  The names date
# from the enumerating searches it replaced; `suite compare` matches on
# them, so they stay.
register_scenario(
    Scenario(
        name="exact-sharded-16k",
        # 16 supported kernels (a 65,536-subset space).
        workload=WorkloadSpec.synthetic(
            20, seed=5, kernel_fraction=0.8, comm_intensity=0.5
        ),
        constraint_fraction=0.5,
        algorithm=AlgorithmSpec.exhaustive(),
        tags=("synthetic", "exact"),
    )
)
register_scenario(
    Scenario(
        name="exact-bnb-certify-34",
        # 34 supported kernels (a 2^34 subset space).
        workload=WorkloadSpec.synthetic(40, seed=9, kernel_fraction=0.85),
        constraint_fraction=0.5,
        algorithm=AlgorithmSpec.exhaustive(),
        tags=("synthetic", "exact"),
    )
)
register_scenario(
    Scenario(
        name="exact-bnb-sharded-filterbank",
        # A real kernel-rich workload.
        workload=WorkloadSpec.filterbank(),
        constraint_fraction=0.55,
        algorithm=AlgorithmSpec.exhaustive(),
        tags=("new-workload", "filterbank", "exact"),
    )
)
