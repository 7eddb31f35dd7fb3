"""Dataset substrate for HCC-MF.

This subpackage provides the rating-matrix data structures, synthetic
dataset generators that mirror the shape statistics of the paper's
evaluation datasets (Table 3), and the row/column grid partitioning
machinery used by the server's ``DataManager`` (paper section 3.3).
"""

from repro._lazy import lazy_exports

__all__ = [
    "RatingMatrix",
    "stable_order",
    "SyntheticConfig",
    "generate_low_rank",
    "sample_sparsity_pattern",
    "DatasetSpec",
    "NETFLIX",
    "YAHOO_R1",
    "R1_STAR",
    "YAHOO_R2",
    "MOVIELENS_20M",
    "DATASETS",
    "get_dataset",
    "load_text",
    "save_text",
    "load_movielens_csv",
    "load_npz",
    "save_npz",
    "DatasetProfile",
    "profile",
    "profile_spec",
    "render_profile",
    "gini",
    "conflict_probability",
    "GridKind",
    "GridAssignment",
    "choose_grid",
    "partition_rows",
    "row_sorted_shards",
    "partition_entries",
    "block_sort",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.data.ratings": ("RatingMatrix", "stable_order"),
    "repro.data.synthetic": (
        "SyntheticConfig", "generate_low_rank", "sample_sparsity_pattern",
    ),
    "repro.data.datasets": (
        "DatasetSpec", "NETFLIX", "YAHOO_R1", "R1_STAR", "YAHOO_R2",
        "MOVIELENS_20M", "DATASETS", "get_dataset",
    ),
    "repro.data.io": (
        "load_text", "save_text", "load_movielens_csv", "load_npz", "save_npz",
    ),
    "repro.data.analysis": (
        "DatasetProfile", "profile", "profile_spec", "render_profile", "gini",
        "conflict_probability",
    ),
    "repro.data.grid": (
        "GridKind", "GridAssignment", "choose_grid", "partition_rows",
        "row_sorted_shards", "partition_entries", "block_sort",
    ),
})
