"""The benchmark's workloads: fixed plan shapes, a seed-derived plan sequence.

Standard library only, because ``run.py`` writes plan files with it before
any process has imported numpy or rkfda.
"""

from __future__ import annotations

from dataclasses import dataclass

# The reference plan of every run uses this plan seed; the correctness gate
# compares its datasets and report rows with ``reference.json``.
REFERENCE_SEED = 1507


@dataclass(frozen=True)
class Workload:
    """One plan shape and the runs per (model, n) cell of a timed plan.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    models: tuple
    sizes: tuple
    grid_count: int
    methods: tuple
    test_size: int
    validation_size: int
    workers: int
    runs: int
    d_max: int = 10
    centroid_r_max: int = 20

    @property
    def runs_per_plan(self) -> int:
        return len(self.models) * len(self.sizes) * self.runs

    def plan_text(self, seed: int, runs: int | None = None) -> str:
        """The INI plan that ``rkfda bench --plan`` reads."""
        return "\n".join(
            [
                "[plan]",
                "models = " + " ".join(self.models),
                "sizes = " + " ".join(str(n) for n in self.sizes),
                f"runs = {self.runs if runs is None else runs}",
                f"test_size = {self.test_size}",
                f"validation_size = {self.validation_size}",
                f"grid_count = {self.grid_count}",
                "methods = " + " ".join(self.methods),
                f"d_max = {self.d_max}",
                f"centroid_r_max = {self.centroid_r_max}",
                f"seed = {seed}",
                f"workers = {self.workers}",
                "",
            ]
        )


def plan_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th timed plan of a run started with ``seed``."""
    return seed * 1000 + index


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="protocol",
            models=("G4", "L1-OU", "L4-sB", "M3"),
            sizes=(50, 200),
            grid_count=100,
            methods=("RK-C", "RK_B-C", "kNN", "Centroid"),
            test_size=1000,
            validation_size=200,
            workers=2,
            runs=2,  # the pool runs one (model, n) cell at a time: give both workers a run
        ),
        Workload(
            name="dense",
            models=("G4", "L1-B"),
            sizes=(200,),
            grid_count=1000,
            methods=("RK-C", "RK_B-C", "Centroid"),
            test_size=500,
            validation_size=200,
            workers=1,
            runs=1,
        ),
        Workload(
            name="large-n",
            models=("G4", "L4-sB", "M3"),
            sizes=(1000,),
            grid_count=100,
            methods=("kNN", "Centroid"),
            test_size=2000,
            validation_size=500,
            workers=1,
            runs=1,
        ),
    )
}
