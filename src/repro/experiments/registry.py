"""Registry of the reproduction's experiments.

One authoritative list mapping experiment ids to their claim, paper
anchor and bench target — the machine-readable form of the DESIGN.md §2
table, used by ``python -m repro list`` and importable by tooling.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One experiment of the harness."""

    id: str
    claim: str
    anchor: str
    bench: str


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("t1", "LIC/LID weight ≥ ½ · optimal matching weight",
               "Theorem 2", "benchmarks/bench_t1_weight_ratio.py"),
    Experiment("t2", "LID satisfaction ≥ ¼(1+1/b_max) · optimum",
               "Theorem 3", "benchmarks/bench_t2_satisfaction_ratio.py"),
    Experiment("t3", "LID edge set ≡ LIC edge set under any schedule",
               "Lemmas 4, 6", "benchmarks/bench_t3_equivalence.py"),
    Experiment("t4", "termination + message complexity (PROP/REJ ≤ 2m)",
               "Lemma 5, §5", "benchmarks/bench_t4_messages.py"),
    Experiment("t5", "static share ≥ ½(1+1/b), tight construction",
               "Lemma 1 / eq. 8", "benchmarks/bench_t5_static_bound.py"),
    Experiment("t6", "round-truncated almost-stable LID: quality vs round"
               " budget k",
               "Theorem 3", "benchmarks/bench_t6_truncation.py"),
    Experiment("f1", "satisfaction distributions vs baselines/OPT",
               "§1, §3", "benchmarks/bench_f1_satisfaction_dist.py"),
    Experiment("f2", "scalability at constant degree",
               "§5", "benchmarks/bench_f2_scalability.py"),
    Experiment("f3", "measured ratio vs the ¼(1+1/b) band",
               "Theorems 1, 3", "benchmarks/bench_f3_ratio_vs_b.py"),
    Experiment("f4", "cyclic preferences: oscillation vs termination",
               "§1, Lemma 5", "benchmarks/bench_f4_cyclic_convergence.py"),
    Experiment("f5", "structure of the constructed overlay",
               "§1 goal", "benchmarks/bench_f5_overlay_structure.py"),
    Experiment("f6", "partial adoption: deadlock risk + adopter advantage",
               "§1/§2, Lemma 5", "benchmarks/bench_f6_partial_adoption.py"),
    Experiment("a1", "tie-breaking ablation (unique-weights device)",
               "§4", "benchmarks/bench_a1_tiebreak_ablation.py"),
    Experiment("a2", "fault campaign: loss + crash + partition + Byzantine"
               " (terminate, zero invariant violations)",
               "§7", "benchmarks/bench_a2_robustness.py"),
    Experiment("a3", "churn: exact incremental repair (centralised)",
               "§7", "benchmarks/bench_a3_churn.py"),
    Experiment("a4", "churn: distributed dynamic protocol",
               "§7", "benchmarks/bench_a4_dynamic_protocol.py"),
    Experiment("a5", "local-search head-room over greedy",
               "Theorem 2 slack", "benchmarks/bench_a5_local_search.py"),
    Experiment("a6", "weight-design / reservation ablation",
               "§7", "benchmarks/bench_a6_variants.py"),
    Experiment("p1", "vectorised kernels (engineering)",
               "—", "benchmarks/bench_p1_vectorised_kernels.py"),
    Experiment("p3", "array-backed fast LIC backend ≥5x (engineering)",
               "—", "benchmarks/bench_p3_fast_backend.py"),
    Experiment("p4", "round-batched fast LID engine ≥10x, bit-identical"
               " replay (engineering)",
               "—", "benchmarks/bench_p4_fast_lid.py"),
)


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment by id (case-insensitive)."""
    for exp in EXPERIMENTS:
        if exp.id == exp_id.lower():
            return exp
    raise KeyError(f"unknown experiment {exp_id!r}")
