"""Synthetic OECD Better-Life dataset (35 countries x 25 attributes).

The paper's primary demo dataset "contains 25 distinct attributes
(indicators) about 35 countries".  The original extract is not bundled with
the paper, so this generator produces a synthetic stand-in that

* uses the 24 indicator abbreviations visible in Figure 2 (expanded to full
  names) plus the country name, and
* plants exactly the statistical relationships the section 4.1 usage
  scenario relies on:

  - ``EmployeesWorkingVeryLongHours`` and ``TimeDevotedToLeisure`` have a
    strong *negative* correlation and form the top-ranked correlation pair;
  - ``TimeDevotedToLeisure`` has (near) zero correlation with
    ``SelfReportedHealth``;
  - ``TimeDevotedToLeisure`` is approximately normally distributed while
    ``SelfReportedHealth`` is left-skewed;
  - ``LifeSatisfaction`` and ``SelfReportedHealth`` are highly correlated,
    so focusing on Self Reported Health surfaces Life Satisfaction.

The key correlations are planted *exactly in-sample* by building the
indicator columns from an orthonormalised noise basis, so the scenario is
reproducible for any seed.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from repro.data.column import CategoricalColumn, NumericColumn
from repro.data.schema import ColumnKind, Field
from repro.data.table import DataTable

#: Figure 2 abbreviation -> full indicator name.
OECD_INDICATORS: dict[str, str] = {
    "CnOR": "ConsultationOnRuleMaking",
    "EdcA": "EducationalAttainment",
    "StdS": "StudentSkills",
    "QOSN": "QualityOfSupportNetwork",
    "SlRH": "SelfReportedHealth",
    "LfSt": "LifeSatisfaction",
    "EmpR": "EmploymentRate",
    "WtrQ": "WaterQuality",
    "LfEx": "LifeExpectancy",
    "HNFW": "HouseholdNetFinancialWealth",
    "RmPP": "RoomsPerPerson",
    "HNAD": "HouseholdNetAdjustedDisposableIncome",
    "PrsE": "PersonalEarnings",
    "VtrT": "VoterTurnout",
    "YrIE": "YearsInEducation",
    "TDTL": "TimeDevotedToLeisure",
    "HsnE": "HousingExpenditure",
    "JbSc": "JobSecurity",
    "LnUR": "LongTermUnemploymentRate",
    "AssR": "AssaultRate",
    "HmcR": "HomicideRate",
    "DWBF": "DwellingsWithoutBasicFacilities",
    "ArPl": "AirPollution",
    "EWVL": "EmployeesWorkingVeryLongHours",
}

#: The 35 OECD member countries (2017 membership).
OECD_COUNTRIES: list[str] = [
    "Australia", "Austria", "Belgium", "Canada", "Chile", "Czech Republic",
    "Denmark", "Estonia", "Finland", "France", "Germany", "Greece", "Hungary",
    "Iceland", "Ireland", "Israel", "Italy", "Japan", "Korea", "Latvia",
    "Luxembourg", "Mexico", "Netherlands", "New Zealand", "Norway", "Poland",
    "Portugal", "Slovak Republic", "Slovenia", "Spain", "Sweden",
    "Switzerland", "Turkey", "United Kingdom", "United States",
]

#: Planted in-sample correlations used by the usage scenario.
LEISURE_WORKHOURS_CORRELATION = -0.92
HEALTH_LIFESATISFACTION_CORRELATION = 0.88

#: Realistic (location, scale) used to map standardised columns to indicator units.
_INDICATOR_SCALES: dict[str, tuple[float, float]] = {
    "ConsultationOnRuleMaking": (2.4, 0.8),
    "EducationalAttainment": (76.0, 10.0),
    "StudentSkills": (486.0, 25.0),
    "QualityOfSupportNetwork": (89.0, 4.0),
    "SelfReportedHealth": (69.0, 12.0),
    "LifeSatisfaction": (6.5, 0.7),
    "EmploymentRate": (66.0, 7.0),
    "WaterQuality": (81.0, 9.0),
    "LifeExpectancy": (80.0, 2.5),
    "HouseholdNetFinancialWealth": (67000.0, 45000.0),
    "RoomsPerPerson": (1.7, 0.4),
    "HouseholdNetAdjustedDisposableIncome": (27000.0, 7000.0),
    "PersonalEarnings": (41000.0, 12000.0),
    "VoterTurnout": (68.0, 12.0),
    "YearsInEducation": (17.4, 1.5),
    "TimeDevotedToLeisure": (14.9, 0.5),
    "HousingExpenditure": (20.5, 2.0),
    "JobSecurity": (5.4, 2.5),
    "LongTermUnemploymentRate": (2.5, 2.3),
    "AssaultRate": (3.8, 1.6),
    "HomicideRate": (1.4, 2.2),
    "DwellingsWithoutBasicFacilities": (2.3, 3.0),
    "AirPollution": (13.8, 5.0),
    "EmployeesWorkingVeryLongHours": (8.0, 6.0),
}


def _orthonormal_basis(
    n_rows: int, n_vectors: int, rng: np.random.Generator,
    anchor: np.ndarray | None = None,
) -> np.ndarray:
    """Columns that are exactly zero-mean, unit-variance and mutually orthogonal.

    When ``anchor`` is given, every returned column is also exactly
    orthogonal to it (in addition to the constant vector), which lets the
    generator plant exact correlations against a hand-crafted column.
    """
    extra = 2 if anchor is not None else 1
    raw = rng.standard_normal((n_rows, n_vectors + extra))
    raw[:, 0] = 1.0  # include the constant so the rest are exactly zero-mean
    if anchor is not None:
        raw[:, 1] = anchor
    q, _ = np.linalg.qr(raw)
    basis = q[:, extra: n_vectors + extra]
    return basis * np.sqrt(n_rows)  # unit sample variance


def _standardize(values: np.ndarray) -> np.ndarray:
    centered = values - values.mean()
    sigma = centered.std()
    return centered / sigma if sigma > 0 else centered


def _orthogonalize(values: np.ndarray, against: np.ndarray) -> np.ndarray:
    """Remove the in-sample projection of ``values`` onto ``against``."""
    against_std = _standardize(against)
    values_std = _standardize(values)
    projection = np.dot(values_std, against_std) / np.dot(against_std, against_std)
    return _standardize(values_std - projection * against_std)


def load_oecd(seed: int = 2017) -> DataTable:
    """Build the synthetic OECD wellbeing table (35 rows x 25 columns)."""
    rng = np.random.default_rng(seed)
    n = len(OECD_COUNTRIES)
    names = list(OECD_INDICATORS.values())

    # --- scenario columns (exact in-sample correlations) -------------------
    # Time Devoted To Leisure must look normally distributed (section 4.1),
    # so it is built from normal quantiles of a random country ordering:
    # exactly symmetric in-sample, hence near-zero skewness.
    quantile_grid = np.array(
        [NormalDist().inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
    leisure = _standardize(quantile_grid[rng.permutation(n)])
    standardized: dict[str, np.ndarray] = {"TimeDevotedToLeisure": leisure}

    # Remaining structure comes from a basis that is exactly orthogonal to
    # the leisure column: 2 scenario components + one anchor per thematic
    # block + one component per remaining indicator (32 vectors; 35 rows
    # admit at most 33 zero-mean vectors orthogonal to leisure).
    basis = _orthonormal_basis(n, len(names) + 8, rng, anchor=leisure)

    rho = LEISURE_WORKHOURS_CORRELATION
    standardized["EmployeesWorkingVeryLongHours"] = (
        rho * leisure + np.sqrt(1.0 - rho * rho) * basis[:, 1]
    )

    # Self Reported Health: left-skewed and exactly uncorrelated with leisure.
    raw_health = -rng.lognormal(mean=0.0, sigma=0.55, size=n)
    health = _orthogonalize(raw_health, leisure)
    standardized["SelfReportedHealth"] = health

    rho_health = HEALTH_LIFESATISFACTION_CORRELATION
    noise = _orthogonalize(basis[:, 2], health)
    standardized["LifeSatisfaction"] = (
        rho_health * health + np.sqrt(1.0 - rho_health * rho_health) * noise
    )

    # --- remaining indicators: moderately correlated thematic blocks --------
    blocks = {
        "economy": ["HouseholdNetFinancialWealth", "HouseholdNetAdjustedDisposableIncome",
                    "PersonalEarnings", "EmploymentRate", "RoomsPerPerson"],
        "education": ["EducationalAttainment", "StudentSkills", "YearsInEducation"],
        "environment": ["WaterQuality", "AirPollution", "DwellingsWithoutBasicFacilities"],
        "safety": ["AssaultRate", "HomicideRate", "JobSecurity", "LongTermUnemploymentRate"],
        "civic": ["ConsultationOnRuleMaking", "VoterTurnout", "QualityOfSupportNetwork"],
        "health_extra": ["LifeExpectancy", "HousingExpenditure"],
    }
    basis_index = 3
    for block_columns in blocks.values():
        anchor = basis[:, basis_index]
        basis_index += 1
        for position, indicator in enumerate(block_columns):
            if indicator in standardized:
                continue
            loading = 0.72 if position > 0 else 1.0
            component = basis[:, basis_index]
            basis_index += 1
            standardized[indicator] = (
                loading * anchor + np.sqrt(max(1.0 - loading**2, 0.0)) * component
            )

    # --- scale to realistic units and assemble the table ---------------------
    columns: list = [
        CategoricalColumn.from_raw("Country", OECD_COUNTRIES)
    ]
    for indicator in names:
        location, scale = _INDICATOR_SCALES[indicator]
        values = location + scale * _standardize(standardized[indicator])
        columns.append(
            NumericColumn(
                Field(indicator, ColumnKind.NUMERIC,
                      description=f"OECD Better Life indicator: {indicator}"),
                values,
            )
        )
    return DataTable(columns, name="oecd-wellbeing")


def figure2_abbreviations() -> dict[str, str]:
    """Full indicator name -> Figure 2 abbreviation (for the overview bench)."""
    return {full: abbrev for abbrev, full in OECD_INDICATORS.items()}
