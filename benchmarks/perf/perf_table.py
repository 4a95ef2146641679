"""The file a generated table travels in, from load generator to server.

The only module ``serve.py`` shares with the harness: kept apart from
``perf_workloads`` so the server process imports no generator, and its
set-up time and peak memory are the program's own.
"""

from __future__ import annotations

import json

import numpy as np

from repro import DataTable
from repro.data import CategoricalColumn, ColumnKind, Field, NumericColumn

DATASET = "bench"


def save_table(table: DataTable, path: str) -> None:
    """Write the generated table where ``serve.py`` will read it."""
    numeric = table.numeric_columns()
    categorical = table.categorical_columns()
    meta = {
        "numeric": [column.name for column in numeric],
        "categorical": [
            {"name": column.name, "categories": column.categories}
            for column in categorical
        ],
    }
    np.savez(
        path,
        meta=np.array(json.dumps(meta)),
        numeric=(np.column_stack([column.values for column in numeric])
                 if numeric else np.empty((table.n_rows, 0))),
        codes=(np.column_stack([column.codes for column in categorical])
               if categorical else np.empty((table.n_rows, 0), dtype=np.int64)),
    )


def load_table(path: str) -> DataTable:
    """Inverse of :func:`save_table`."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        numeric, codes = data["numeric"], data["codes"]
    columns = [
        NumericColumn(Field(name, ColumnKind.NUMERIC), numeric[:, j])
        for j, name in enumerate(meta["numeric"])
    ]
    columns += [
        CategoricalColumn(Field(spec["name"], ColumnKind.CATEGORICAL),
                          codes[:, j], spec["categories"])
        for j, spec in enumerate(meta["categorical"])
    ]
    return DataTable(columns, name=DATASET)
