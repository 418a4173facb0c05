"""What the traced run wraps, and the per-layer metrics made from its spans.

Layers are the modules of ``src/percograph``.  Each function is wrapped
where its caller looks it up: ``run_cell`` calls
``percograph.experiments.sample_percolation``, so that name is patched
as well as ``percograph.lattice.sample_percolation``.  Nothing in ``src``
is edited.

Time and count metrics are per workload unit (one merged sample, one
sweep, one phase pass): the sum over the traced units divided by their
number.  Rates and fractions are ratios of sums.
"""

from collections import defaultdict

from spans import self_times


def _c_critical_d1(p):
    return (1.0 - p) / (1.0 + p)


def _survival_counts(args, kwargs, result):
    dist = args[2]
    case = "super" if result.c > _c_critical_d1(dist.p) else "sub"
    return {"case": case, "reps": result.reps,
            "survived": result.rho_hat * result.reps,
            "ambiguous": result.ambiguous_frac * result.reps}


def _macro_counts(args, kwargs, result):
    return {"long_edges": args[0].n_long_edges, "intra": result.n_intra,
            "multi": result.n_edges_multi, "unique": result.n_edges_unique}


# (module, attribute, span name, counts(args, kwargs, result) or None)
TARGETS = [
    ("percograph.lattice", "edge_uniforms", "rng.edge_uniforms",
     lambda a, k, r: {"edges": r.size}),
    ("percograph.experiments", "build_geometry", "lattice.build_geometry", None),
    ("percograph.lattice", "sample_percolation", "lattice.sample_percolation",
     lambda a, k, r: {"sites": r.geometry.n_vertices}),
    ("percograph.experiments", "sample_percolation", "lattice.sample_percolation",
     lambda a, k, r: {"sites": r.geometry.n_vertices}),
    ("percograph.experiments", "cluster_census", "lattice.cluster_census", None),
    ("percograph.lattice", "component_labels", "components.component_labels",
     lambda a, k, r: {"edges": len(a[1])}),
    ("percograph.merged", "component_labels", "components.component_labels",
     lambda a, k, r: {"edges": len(a[1])}),
    ("percograph.merged", "overlay_long_range", "merged.overlay_long_range",
     lambda a, k, r: {"long_edges": r.n_long_edges}),
    ("percograph.experiments", "overlay_long_range", "merged.overlay_long_range",
     lambda a, k, r: {"long_edges": r.n_long_edges}),
    ("percograph.merged", "build_macro_graph", "merged.build_macro_graph", _macro_counts),
    ("percograph.merged", "verify_correspondence", "merged.verify_correspondence", None),
    ("percograph.experiments", "from_empirical", "distributions.from_empirical", None),
    ("percograph.experiments", "estimate_cluster_law", "experiments.estimate_cluster_law",
     None),
    ("percograph.experiments", "run_cell", "experiments.run_cell",
     lambda a, k, r: {"replicates": r.replicates, "n_failed": r.n_failed}),
    ("percograph.experiments", "theory_point", "theory.theory_point", None),
    ("percograph.theory", "theory_point", "theory.theory_point", None),
    ("percograph.theory", "solve_beta", "theory.solve_beta", None),
    ("percograph.theory", "solve_alpha", "theory.solve_alpha", None),
    ("percograph.theory", "solve_A_z", "theory.solve_A_z",
     lambda a, k, r: {"iterations": r.iterations}),
    ("percograph.branching", "estimate_survival", "branching.estimate_survival",
     _survival_counts),
    ("percograph.cli", "main", "cli.experiment", None),
]

# component_labels is split by the span that called it
CALLERS = {"lattice.sample_percolation": "bond",
           "merged.overlay_long_range": "overlay",
           "merged.build_macro_graph": "macro"}

PER_LAYER = [
    ("rng.edge_uniforms.s", "s", "lower"),
    ("rng.edge_uniforms.calls", "count", "lower"),
    ("rng.edge_uniforms.bytes", "B", "lower"),
    ("lattice.build_geometry.s", "s", "lower"),
    ("lattice.sample_percolation.self_s", "s", "lower"),
    ("lattice.sample_percolation.calls", "count", "lower"),
    ("lattice.sites", "count", "lower"),
    ("lattice.cluster_census.s", "s", "lower"),
]
for _caller in ("bond", "overlay", "macro"):
    PER_LAYER += [
        (f"components.component_labels.{_caller}.s", "s", "lower"),
        (f"components.component_labels.{_caller}.calls", "count", "lower"),
        (f"components.component_labels.{_caller}.edges", "count", "lower"),
        (f"components.component_labels.{_caller}.edges_per_s", "edges/s", "higher"),
    ]
PER_LAYER += [
    ("merged.overlay_long_range.self_s", "s", "lower"),
    ("merged.long_edges", "count", "lower"),
    ("merged.build_macro_graph.self_s", "s", "lower"),
    ("merged.verify_correspondence.s", "s", "lower"),
    ("merged.macro.intra_frac", "ratio", "lower"),
    ("merged.macro.unique_frac", "ratio", "higher"),
    ("distributions.from_empirical.s", "s", "lower"),
    ("experiments.estimate_cluster_law.self_s", "s", "lower"),
    ("experiments.run_cell.self_s", "s", "lower"),
    ("experiments.run_cell.replicates", "count", "lower"),
    ("experiments.run_cell.n_failed", "count", "lower"),
    ("cli.experiment.self_s", "s", "lower"),
]
for _solver in ("theory_point", "solve_beta", "solve_alpha"):
    PER_LAYER += [
        (f"theory.{_solver}.s", "s", "lower"),
        (f"theory.{_solver}.calls", "count", "lower"),
        (f"theory.{_solver}.failed", "count", "lower"),
    ]
PER_LAYER += [
    ("theory.solve_A_z.s", "s", "lower"),
    ("theory.solve_A_z.iterations", "count", "lower"),
]
for _case in ("super", "sub"):
    PER_LAYER += [
        (f"branching.estimate_survival.{_case}.s", "s", "lower"),
        (f"branching.estimate_survival.{_case}.reps", "count", "lower"),
        (f"branching.{_case}.survived_frac", "ratio", "higher"),
        (f"branching.{_case}.ambiguous_frac", "ratio", "lower"),
    ]
PER_LAYER.append(("trace.overhead_frac", "ratio", "lower"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, units, overhead_frac):
    """Every PER_LAYER metric from the spans of ``units`` traced units."""
    selfs = self_times(spans)
    total = defaultdict(float)        # "<span>.<field>" -> sum over spans

    def add(key, span, self_s):
        total[f"{key}.s"] += span.duration
        total[f"{key}.self_s"] += self_s
        total[f"{key}.calls"] += 1
        total[f"{key}.failed"] += span.error is not None
        for attr, value in span.attrs.items():
            if attr != "case":
                total[f"{key}.{attr}"] += value

    for span, self_s in zip(spans, selfs):
        key = span.name
        if key == "components.component_labels":
            parent = spans[span.parent].name if span.parent is not None else ""
            key = f"{key}.{CALLERS.get(parent, 'other')}"
        elif key == "branching.estimate_survival":
            key = f"{key}.{span.attrs['case']}"
        add(key, span, self_s)

    out = {name: _ratio(total[name], units) for name, unit, _ in PER_LAYER
           if unit in ("s", "count")}
    out["rng.edge_uniforms.bytes"] = _ratio(8.0 * total["rng.edge_uniforms.edges"], units)
    out["lattice.sites"] = _ratio(total["lattice.sample_percolation.sites"], units)
    out["merged.long_edges"] = _ratio(total["merged.overlay_long_range.long_edges"], units)
    for caller in ("bond", "overlay", "macro"):
        key = f"components.component_labels.{caller}"
        out[f"{key}.edges_per_s"] = _ratio(total[f"{key}.edges"], total[f"{key}.s"])
    macro = "merged.build_macro_graph"
    out["merged.macro.intra_frac"] = _ratio(total[f"{macro}.intra"], total[f"{macro}.long_edges"])
    out["merged.macro.unique_frac"] = _ratio(total[f"{macro}.unique"], total[f"{macro}.multi"])
    out["theory.solve_A_z.iterations"] = _ratio(total["theory.solve_A_z.iterations"],
                                                total["theory.solve_A_z.calls"])
    for case in ("super", "sub"):
        key = f"branching.estimate_survival.{case}"
        out[f"branching.{case}.survived_frac"] = _ratio(total[f"{key}.survived"], total[f"{key}.reps"])
        out[f"branching.{case}.ambiguous_frac"] = _ratio(total[f"{key}.ambiguous"], total[f"{key}.reps"])
    out["trace.overhead_frac"] = overhead_frac
    return out
