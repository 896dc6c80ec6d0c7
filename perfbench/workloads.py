"""The four benchmark workloads and how a seed turns into their inputs.

Every workload runs hermseq's command line in one process, single-threaded
(HERMSEQ_THREADS unset, so the verify pool has one worker).  The default
seed reproduces the CLI defaults; any other seed draws a nonzero line
x = a for the workloads whose output depends on the line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    """One hermseq invocation.

    metric:   the command time it contributes to (commands sharing a
              metric are summed, as both figure presets are in figures_s)
    check:    which output checker in checks.py reads its output
    output:   file name of its output: written with --out when uses_out,
              else its captured standard output
    takes_a:  whether the seeded line is passed as --a
    """
    metric: str
    check: str
    argv: tuple[str, ...]
    output: str
    uses_out: bool = True
    takes_a: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    fields: tuple[tuple[int, int], ...]       # every (p, e) FieldContext it builds
    line_field: Optional[tuple[int, int]] = None  # (p, e) of --a, if seeded
    seed_counts: tuple[tuple[str, int], ...] = ()  # traced counts at the seed commit


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-default",
        commands=(Command("verify_s", "verify", ("verify",),
                          "verify.txt", uses_out=False),),
        fields=((2, 1), (3, 1)),
        seed_counts=(("complexity.exists_calls", 1397),
                     ("complexity.oracle_calls", 1313)),
    ),
    Workload(
        name="prove-q4",
        commands=(Command("verify_s", "verify", ("verify", "--p", "2", "--e", "2"),
                          "verify.txt", uses_out=False),),
        fields=((2, 2),),
        seed_counts=(("complexity.exists_calls", 800),
                     ("field.offer_calls", 6517)),
    ),
    Workload(
        name="profile-q4",
        commands=(Command("complexity_s", "complexity",
                          ("complexity", "--p", "2", "--e", "2", "--ell", "4",
                           "--mode", "total-degree", "--k-range", "1:2",
                           "--n-range", "1:56"),
                          "complexity.csv", takes_a=True),),
        fields=((2, 2),),
        line_field=(2, 2),
        seed_counts=(("complexity.exists_calls", 1090),
                     ("complexity.exists_feasible", 110),
                     ("field.offer_calls", 13060)),
    ),
    Workload(
        name="emit-q32",
        commands=(Command("sequence_s", "sequence",
                          ("sequence", "--p", "2", "--e", "5", "--ell", "32"),
                          "sequence.csv", takes_a=True),
                  Command("figures_s", "fig1", ("figures", "--preset", "fig1"),
                          "fig1.csv"),
                  Command("figures_s", "fig2", ("figures", "--preset", "fig2"),
                          "fig2.csv")),
        fields=((2, 5),),
        line_field=(2, 5),
        seed_counts=(("curve.eval_quotient_calls", 32704),),
    ),
)}


def line_for(workload: Workload, seed: int) -> Optional[str]:
    """The --a value for this seed: None (CLI default, x = epsilon) for the
    default seed or an unseeded workload, else a nonzero element drawn from
    the seed, written as ':'-joined prime-field coefficients."""
    if workload.line_field is None or seed == DEFAULT_SEED:
        return None
    p, e = workload.line_field
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randrange(p) for _ in range(2 * e)]
        if any(coeffs):
            return ":".join(map(str, coeffs))


def reference_applies(cmd: Command, a: Optional[str]) -> bool:
    """True when the command gets the inputs its reference output was
    recorded from, i.e. it ignores the line or the line is the default."""
    return not (cmd.takes_a and a is not None)


def command_argv(cmd: Command, a: Optional[str], out_dir: str) -> list[str]:
    argv = list(cmd.argv)
    if cmd.takes_a and a is not None:
        argv += ["--a", a]
    if cmd.uses_out:
        argv += ["--out", f"{out_dir}/{cmd.output}"]
    return argv
