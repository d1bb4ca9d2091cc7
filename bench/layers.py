"""The library functions the traced run wraps, with their counters.

Layers are the library's modules.  Size counters record how much work a call
was given; reuse keys record how often a call repeats an earlier input, the
property that memoisation would exploit.

Which layer metric should move which end-to-end metric:

- scalars.muladd_us: jobs_per_s on oracle and algebra, not on reduce.
- spaces.action_matrix, operators.compose, classify.sample_assignment and
  linalg.nullspace self_s, and the three distinct_share values: oracle
  jobs_per_s and job_tail_ms, not algebra.
- linalg.rank and enveloping.expand_word self_s: algebra jobs_per_s.
- linalg.charpoly self_s: algebra job_tail_ms.
- spectral.adaptive_simpson calls and self_s: reduce only.
- any cache: peak_rss_mb; any work moved into import or first calls: setup_s.
"""

from __future__ import annotations

from typing import List

from qeslab import (classify, enveloping, freealg, identities, linalg,
                    operators, reps, spaces, spectral)
from qeslab.operators import LinOperator, MatrixOperator

from tracing import Target


def _op_key(op) -> object:
    if isinstance(op, MatrixOperator):
        return tuple(frozenset(e.terms.items()) for row in op.entries for e in row)
    return frozenset(op.terms.items())


def _nullspace_cells(args, kwargs, result) -> int:
    rows = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows) * ncols


def targets() -> List[Target]:
    return [
        Target("classify.verify_case", classify, "verify_case"),
        Target("classify.sample_assignment", classify, "sample_assignment",
               key=lambda a, kw: (a[0].algebra, a[0].id, a[1],
                                  tuple(sorted((k, str(v)) for k, v in a[2].items())))),
        Target("classify.CoeffAssignment.operator", classify.CoeffAssignment, "operator"),
        Target("classify.conclusion_spaces", classify, "conclusion_spaces"),
        Target("classify.constrained_param_count", classify, "constrained_param_count"),
        Target("spaces.action_matrix", spaces, "action_matrix",
               size=("basis_images", lambda a, kw, r: len(r.labels)),
               key=lambda a, kw: (_op_key(a[0]), a[1])),
        Target("operators.compose", operators, "compose"),
        Target("operators.LinOperator.apply_poly", LinOperator, "apply_poly"),
        Target("reps.make_rep", reps, "make_rep"),
        Target("reps.GeneratorSet.word_op", reps.GeneratorSet, "word_op"),
        Target("enveloping.expand_word", enveloping, "expand_word",
               key=lambda a, kw: (a[0].spec, a[1])),
        Target("enveloping.param_count", enveloping, "param_count"),
        Target("linalg.rank", linalg, "rank",
               size=("cells", lambda a, kw, r: len(a[0]) * (len(a[0][0]) if a[0] else 0))),
        Target("linalg.nullspace", linalg, "nullspace", size=("cells", _nullspace_cells)),
        Target("linalg.charpoly", linalg, "charpoly",
               size=("dim_sum", lambda a, kw, r: len(a[0]))),
        Target("spectral.spectrum", spectral, "spectrum"),
        Target("spectral.reduce_to_schrodinger", spectral, "reduce_to_schrodinger"),
        Target("spectral.adaptive_simpson", spectral, "adaptive_simpson"),
        Target("spectral.schrodinger_residual", spectral, "schrodinger_residual"),
        Target("freealg.normal_order", freealg, "normal_order"),
        Target("identities.verify_identity", identities, "verify_identity"),
    ]

