"""DeltaBatch validation: the type / arity / missing-value gate."""

from __future__ import annotations

import pytest

from repro.errors import DeltaValidationError
from repro.data import DataTable
from repro.ingest import DeltaBatch, MAX_BATCH_ROWS


@pytest.fixture(scope="module")
def base_table() -> DataTable:
    return DataTable.from_columns(
        {
            "height": [1.62, 1.75, 1.80, 1.68],
            "city": ["Oslo", "Paris", "Paris", "Lima"],
            "smoker": [True, False, False, True],
        },
        name="people",
    )


class TestValidBatches:
    def test_materialises_with_base_schema(self, base_table):
        batch = DeltaBatch.from_records(
            "people",
            [{"height": 1.9, "city": "Rome", "smoker": False},
             {"height": "1.55", "city": "Oslo", "smoker": "yes"}],
            base_table.schema,
        )
        assert batch.n_rows == 2
        assert batch.table.schema == base_table.schema
        # Strings parsed under the column's kind, not re-inferred.
        assert batch.table.numeric_column("height").valid_values().tolist() == [
            1.9, 1.55
        ]
        assert batch.table.categorical_column("city").labels() == ["Rome", "Oslo"]

    def test_missing_values_allowed(self, base_table):
        batch = DeltaBatch.from_records(
            "people",
            [{"height": None, "city": "Rome"},            # smoker absent
             {"height": 2.0, "city": "", "smoker": None}],  # "" is missing
            base_table.schema,
        )
        assert batch.n_rows == 2
        assert batch.table.column("smoker").missing_count() == 2
        assert batch.table.column("height").missing_count() == 1
        assert batch.table.column("city").missing_count() == 1

    def test_concat_extends_base(self, base_table):
        batch = DeltaBatch.from_records(
            "people",
            [{"height": 1.7, "city": "Tokyo", "smoker": False}],
            base_table.schema,
        )
        combined = base_table.concat(batch.table)
        assert combined.n_rows == 5
        # New categorical level extends the category list.
        assert "Tokyo" in combined.categorical_column("city").categories


class TestRejectedBatches:
    def test_empty_batch(self, base_table):
        with pytest.raises(DeltaValidationError):
            DeltaBatch.from_records("people", [], base_table.schema)

    def test_unknown_column(self, base_table):
        with pytest.raises(DeltaValidationError, match="unknown column"):
            DeltaBatch.from_records(
                "people", [{"heigth": 1.7}], base_table.schema
            )

    def test_type_violation_numeric(self, base_table):
        with pytest.raises(DeltaValidationError, match="not numeric"):
            DeltaBatch.from_records(
                "people", [{"height": "tall"}], base_table.schema
            )

    def test_type_violation_boolean(self, base_table):
        with pytest.raises(DeltaValidationError, match="not boolean"):
            DeltaBatch.from_records(
                "people", [{"smoker": "maybe"}], base_table.schema
            )

    def test_int_beyond_the_float_range_is_a_named_rejection(self, base_table):
        # Was an OverflowError out of parse_number (a 500 over HTTP).
        with pytest.raises(DeltaValidationError) as info:
            DeltaBatch.from_records(
                "people", [{"height": 1.7}, {"height": 10**400}],
                base_table.schema,
            )
        assert info.value.problems == [
            f"row 1, column 'height': value {10**400!r} is not numeric"
        ]

    def test_container_is_not_a_label(self, base_table):
        with pytest.raises(DeltaValidationError, match="categorical"):
            DeltaBatch.from_records(
                "people", [{"city": ["Oslo"]}], base_table.schema
            )

    def test_all_problems_reported(self, base_table):
        with pytest.raises(DeltaValidationError) as info:
            DeltaBatch.from_records(
                "people",
                [{"height": "x"}, {"smoker": "nah"}, {"bogus": 1}],
                base_table.schema,
            )
        assert len(info.value.problems) == 3

    def test_non_record_row(self, base_table):
        with pytest.raises(DeltaValidationError, match="not a record"):
            DeltaBatch.from_records("people", [[1, 2, 3]], base_table.schema)

    def test_oversized_batch(self, base_table):
        rows = [{"height": 1.0}] * (MAX_BATCH_ROWS + 1)
        with pytest.raises(DeltaValidationError, match="per-batch limit"):
            DeltaBatch.from_records("people", rows, base_table.schema)

    def test_problems_are_reported_in_row_major_order(self, base_table):
        with pytest.raises(DeltaValidationError) as info:
            DeltaBatch.from_records(
                "people",
                [{"height": "x", "city": ["Oslo"], "smoker": "nah"},
                 [1, 2],
                 {"smoker": "maybe", "height": 1.0},
                 {"zip": 1, "age": 2},
                 {"city": {"a": 1}, "height": "tall"}],
                base_table.schema,
            )
        assert info.value.problems == [
            "row 0, column 'height': value 'x' is not numeric",
            "row 0, column 'city': value of type list is not a categorical label",
            "row 0, column 'smoker': value 'nah' is not boolean",
            "row 1: not a record object",
            "row 2, column 'smoker': value 'maybe' is not boolean",
            "row 3: unknown column(s) ['age', 'zip']",
            "row 4, column 'height': value 'tall' is not numeric",
            "row 4, column 'city': value of type dict is not a categorical label",
        ]

    def test_rejection_is_all_or_nothing(self, base_table):
        # One bad row in a batch of two: nothing materialises.
        with pytest.raises(DeltaValidationError):
            DeltaBatch.from_records(
                "people",
                [{"height": 1.7}, {"height": "bad"}],
                base_table.schema,
            )
