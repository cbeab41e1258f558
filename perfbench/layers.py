"""Where the traced run hooks into fracseg, and the per-layer metrics.

Each public function is wrapped under the name its caller looks it up by:
the benchmark's own calls go through module attributes, and a call from one
module into another goes through the caller's global (``system.build_grid``,
``cli.sweep_beta``).  The scipy boundary is hooked by giving ``grid`` and
``sphere`` their own view of ``scipy.sparse.linalg`` in which ``splu`` and
``eigsh`` are wrapped, so factorizations made elsewhere (ARPACK's
shift-invert, for one) are not counted under ``grid``.
"""

from __future__ import annotations

import scipy.sparse.linalg as spla

from fracseg import cli, core, diagnostics, grid, spectral, sphere, system
from spans import Tracer


class _LinalgView:
    """scipy.sparse.linalg with some names overridden."""

    def __getattr__(self, name):
        return getattr(spla, name)


def install() -> Tracer:
    tr = Tracer()

    def count_fill(lu):
        tr.counters["grid.splu.fill_nnz"] += lu.nnz

    def count_outer(res):
        tr.counters["system.outer_iters"] += res.outer_iters

    cli_write = cli.atomic_write_text

    def count_bytes(path, text):
        tr.counters["cli.output_bytes"] += len(text.encode("utf-8"))
        return cli_write(path, text)

    view = _LinalgView()
    view.splu = tr.wrap(spla.splu, "grid.splu", after=count_fill)
    tr.replace(grid, "spla", view)
    view = _LinalgView()
    view.eigsh = tr.wrap(spla.eigsh, "sphere.eigsh")
    tr.replace(sphere, "spla", view)

    hooks = [
        (cli, "main", "cli.main"),
        (cli, "load_config", "cli.load_config"),
        (cli, "sweep_beta", "system.sweep_beta"),
        (system, "solve_system", "system.solve_system", count_outer),
        (system, "build_grid", "grid.build_grid"),
        (system, "trace_seminorm", "diagnostics.trace_seminorm"),
        (grid, "build_grid", "grid.build_grid"),
        (grid, "assemble_La", "grid.assemble_La"),
        (grid, "solve_linear", "grid.solve_linear"),
        (diagnostics, "almgren", "diagnostics.almgren"),
        (diagnostics, "acf_one_phase", "diagnostics.acf_one_phase"),
        (diagnostics, "pohozaev_residual", "diagnostics.pohozaev_residual"),
        (diagnostics, "trace_seminorm", "diagnostics.trace_seminorm"),
        (sphere, "lambda1", "sphere.lambda1"),
        (sphere, "nu_acf_caps", "sphere.nu_acf_caps"),
        (spectral, "frac_lap_pv", "spectral.frac_lap_pv"),
        (spectral, "comparison_pv", "spectral.comparison_pv"),
        (spectral, "ComparisonProfile", "spectral.ComparisonProfile"),
        (core, "eval_solution", "core.eval_solution"),
    ]
    for hook in hooks:
        tr.patch(*hook)
    tr.replace(cli, "atomic_write_text", tr.wrap(count_bytes, "cli.output_write"))
    return tr


#: (metric, span name, field) for every span-derived per-layer metric
SPAN_METRICS = [
    ("grid.splu.calls", "grid.splu", "calls"),
    ("grid.splu.s", "grid.splu", "s"),
    ("grid.assemble_La.calls", "grid.assemble_La", "calls"),
    ("grid.assemble_La.s", "grid.assemble_La", "s"),
    ("grid.build_grid.calls", "grid.build_grid", "calls"),
    ("grid.solve_linear.calls", "grid.solve_linear", "calls"),
    ("grid.solve_linear.s", "grid.solve_linear", "s"),
    ("grid.solve_linear.self_s", "grid.solve_linear", "self_s"),
    ("system.solve_system.calls", "system.solve_system", "calls"),
    ("system.solve_system.s", "system.solve_system", "s"),
    ("system.solve_system.self_s", "system.solve_system", "self_s"),
    ("diagnostics.trace_seminorm.s", "diagnostics.trace_seminorm", "s"),
    ("diagnostics.almgren.s", "diagnostics.almgren", "s"),
    ("diagnostics.acf_one_phase.s", "diagnostics.acf_one_phase", "s"),
    ("diagnostics.pohozaev_residual.s", "diagnostics.pohozaev_residual", "s"),
    ("sphere.lambda1.calls", "sphere.lambda1", "calls"),
    ("sphere.lambda1.s", "sphere.lambda1", "s"),
    ("sphere.lambda1.self_s", "sphere.lambda1", "self_s"),
    ("sphere.eigsh.calls", "sphere.eigsh", "calls"),
    ("sphere.eigsh.s", "sphere.eigsh", "s"),
    ("sphere.nu_acf_caps.s", "sphere.nu_acf_caps", "s"),
    ("spectral.frac_lap_pv.s", "spectral.frac_lap_pv", "s"),
    ("spectral.comparison_pv.s", "spectral.comparison_pv", "s"),
    ("spectral.ComparisonProfile.s", "spectral.ComparisonProfile", "s"),
    ("core.eval_solution.s", "core.eval_solution", "s"),
    ("cli.load_config.s", "cli.load_config", "s"),
    ("cli.output_write.s", "cli.output_write", "s"),
]

COUNTER_METRICS = ["grid.splu.fill_nnz", "system.outer_iters", "cli.output_bytes"]


def metrics(tr: Tracer) -> dict:
    """Every per-layer metric of one traced pass, zero where a layer idles."""
    totals = tr.totals()
    out = {}
    for metric, span, field in SPAN_METRICS:
        out[metric] = totals[span][field] if span in totals else 0
    for name in COUNTER_METRICS:
        out[name] = tr.counters.get(name, 0)
    outer = out["system.outer_iters"]
    out["grid.splu.per_outer_iter"] = out["grid.splu.calls"] / outer if outer else 0
    out["trace.bookkeeping_s"] = tr.bookkeeping_s()
    return out
