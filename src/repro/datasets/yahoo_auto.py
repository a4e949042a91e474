"""Synthetic Yahoo! Auto dataset.

The paper's offline Yahoo! Auto dataset was a 15,211-row crawl of used-car
listings expanded with DBGen to 188,790 tuples, preserving the original
distribution: 38 searchable attributes (32 Boolean options such as A/C and
POWER LOCKS, plus 6 categorical attributes such as MAKE, MODEL and COLOR
with domain sizes between 5 and 16).

We cannot redistribute the crawl, so this module builds the closest
synthetic equivalent: a hierarchical conditional sampler whose structural
properties match what the paper's experiments exercise —

* skewed categorical marginals (a few popular makes/models dominate);
* MAKE→MODEL correlation (each make concentrates on a handful of models);
* strongly clustered Boolean options: real listings of one model/trim share
  almost all their options, so each (make, model) carries a few *trim
  packages* — fixed option bit-patterns — and individual cars deviate from
  their package by small flip noise.  This clustering produces the deep,
  thin top-valid nodes responsible for the huge plain-walk variance the
  paper measures on the real crawl (Figures 14-17 depend on it);
* a PRICE measure column correlated with make, model and trim for the
  SUM(price) experiments (Figure 19);
* database size orders of magnitude below the searchable domain size
  (|Dom| = 2^32 x 16 x 16 x 12 x 8 x 6 x 5 vs m ~ 1.9e5);
* no duplicate tuples on the searchable attributes.

The paper's real crawl is not available, so this generator stands in for
it; the properties above are the ones its experiments depend on.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.hidden_db.schema import Attribute, Schema
from repro.hidden_db.table import HiddenTable
from repro.utils.rng import RandomSource, spawn_rng

__all__ = [
    "yahoo_auto",
    "yahoo_auto_schema",
    "MAKES",
    "MODELS_PER_MAKE",
    "CATEGORICAL_SPECS",
    "OPTION_NAMES",
]

MAKES: Tuple[str, ...] = (
    "Toyota", "Ford", "Chevrolet", "Honda", "Nissan", "Dodge", "BMW",
    "Mercedes", "Volkswagen", "Hyundai", "Jeep", "Kia", "Lexus", "Mazda",
    "Pontiac", "Subaru",
)

#: 16 model slots; the label attached to a slot depends on the make
#: (slot 0 of Toyota is "Corolla", slot 0 of Ford is "F-150", ...).
MODELS_PER_MAKE: Dict[str, Tuple[str, ...]] = {
    "Toyota": ("Corolla", "Camry", "RAV4", "Tacoma", "Highlander", "Prius",
               "Sienna", "4Runner", "Tundra", "Yaris", "Avalon", "Matrix",
               "Sequoia", "Solara", "Celica", "Echo"),
    "Ford": ("F-150", "Escape", "Focus", "Explorer", "Fusion", "Mustang",
             "Edge", "Ranger", "Taurus", "Expedition", "F-250", "Freestyle",
             "Five Hundred", "Crown Victoria", "Windstar", "Escort"),
    "Chevrolet": ("Cobalt", "Silverado", "Impala", "Malibu", "Tahoe",
                  "Equinox", "Trailblazer", "Suburban", "Colorado", "Aveo",
                  "HHR", "Monte Carlo", "Corvette", "Uplander", "Avalanche",
                  "Cavalier"),
    "Pontiac": ("G6", "Grand Prix", "Grand Am", "Vibe", "Montana", "Torrent",
                "Solstice", "Bonneville", "Sunfire", "Aztek", "GTO", "G5",
                "Firebird", "Trans Sport", "LeMans", "Fiero"),
}
_GENERIC_MODELS: Tuple[str, ...] = tuple(f"Model-{i+1}" for i in range(16))

#: (name, domain size) of the six categorical attributes; domains 5..16 as
#: in the paper.  MAKE and MODEL lead so the online form's required
#: attribute sits at the tree top.
CATEGORICAL_SPECS: Tuple[Tuple[str, int], ...] = (
    ("MAKE", 16),
    ("MODEL", 16),
    ("COLOR", 12),
    ("BODY_STYLE", 8),
    ("FUEL_TYPE", 6),
    ("DOORS", 5),
)

COLORS: Tuple[str, ...] = (
    "Black", "White", "Silver", "Gray", "Blue", "Red", "Green", "Beige",
    "Brown", "Gold", "Orange", "Yellow",
)
BODY_STYLES: Tuple[str, ...] = (
    "Sedan", "SUV", "Pickup", "Coupe", "Hatchback", "Minivan", "Wagon",
    "Convertible",
)
FUEL_TYPES: Tuple[str, ...] = (
    "Gasoline", "Diesel", "Hybrid", "Flex", "E85", "CNG",
)
DOOR_LABELS: Tuple[str, ...] = ("2", "3", "4", "5", "Other")

OPTION_NAMES: Tuple[str, ...] = (
    "AC", "POWER_LOCKS", "POWER_WINDOWS", "CRUISE_CONTROL", "SUNROOF",
    "LEATHER_SEATS", "HEATED_SEATS", "NAV_SYSTEM", "BLUETOOTH",
    "ALLOY_WHEELS", "TOW_PACKAGE", "ROOF_RACK", "ABS", "SIDE_AIRBAGS",
    "CURTAIN_AIRBAGS", "TRACTION_CONTROL", "STABILITY_CONTROL",
    "REMOTE_START", "KEYLESS_ENTRY", "FOG_LIGHTS", "SPOILER",
    "TINTED_WINDOWS", "CD_PLAYER", "PREMIUM_AUDIO", "SATELLITE_RADIO",
    "THIRD_ROW_SEAT", "AWD", "TURBO", "CERTIFIED", "ONE_OWNER",
    "WARRANTY", "NON_SMOKER",
)

#: Base adoption rate of each option before luxury/trim adjustment.
_OPTION_BASE = np.array(
    [0.85, 0.75, 0.72, 0.60, 0.22, 0.25, 0.15, 0.08, 0.10,
     0.40, 0.12, 0.18, 0.70, 0.35, 0.25, 0.45, 0.35,
     0.07, 0.55, 0.30, 0.12, 0.28, 0.80, 0.20, 0.15,
     0.10, 0.18, 0.09, 0.25, 0.45, 0.35, 0.50]
)
#: Sensitivity of each option to the latent luxury score of the make.
_OPTION_LUX = np.array(
    [0.10, 0.20, 0.22, 0.25, 0.45, 0.55, 0.55, 0.50, 0.40,
     0.30, 0.05, 0.10, 0.20, 0.30, 0.35, 0.30, 0.35,
     0.30, 0.30, 0.25, 0.10, 0.15, 0.10, 0.45, 0.40,
     0.05, 0.20, 0.25, 0.20, 0.10, 0.15, 0.05]
)

#: Latent luxury score per make (index-aligned with MAKES).
_MAKE_LUXURY = np.array(
    [0.35, 0.30, 0.28, 0.38, 0.32, 0.25, 0.85, 0.90, 0.45, 0.22,
     0.40, 0.20, 0.80, 0.35, 0.25, 0.42]
)
#: Mean base price per make (USD).
_MAKE_BASE_PRICE = np.array(
    [14000, 15500, 14500, 14800, 13500, 13800, 28000, 31000, 16000,
     11000, 17500, 10500, 26000, 13000, 12000, 15000],
    dtype=float,
)

_MAX_DEDUP_ROUNDS = 200

#: Trim tiers per (make, model): base -> fully loaded.
_TIER_PROBS = np.array([0.45, 0.30, 0.17, 0.08])
#: Probability that one option bit deviates from its trim package.
_OPTION_FLIP_NOISE = 0.05


def _zipf_probs(size: int, s: float, rng: np.random.Generator, shuffle: bool) -> np.ndarray:
    """Zipf-like probability vector of *size* entries with exponent *s*."""
    ranks = np.arange(1, size + 1, dtype=float)
    probs = ranks**-s
    probs /= probs.sum()
    if shuffle:
        rng.shuffle(probs)
    return probs


def yahoo_auto_schema() -> Schema:
    """The 38-attribute searchable schema plus PRICE/MILEAGE/YEAR measures."""
    attributes = [
        Attribute("MAKE", 16, labels=MAKES),
        # MODEL labels are slot names; resolve make-specific labels with
        # :func:`model_label`.
        Attribute("MODEL", 16, labels=tuple(f"slot{i}" for i in range(16))),
        Attribute("COLOR", 12, labels=COLORS),
        Attribute("BODY_STYLE", 8, labels=BODY_STYLES),
        Attribute("FUEL_TYPE", 6, labels=FUEL_TYPES),
        Attribute("DOORS", 5, labels=DOOR_LABELS),
    ]
    attributes.extend(Attribute(name, 2) for name in OPTION_NAMES)
    return Schema(attributes, measure_names=("PRICE", "MILEAGE", "YEAR"))


def model_label(make_value: int, model_value: int) -> str:
    """Human-readable model name for a (make, model-slot) pair."""
    make = MAKES[make_value]
    models = MODELS_PER_MAKE.get(make, _GENERIC_MODELS)
    return models[model_value]


def yahoo_auto(
    m: int = 188_790,
    seed: RandomSource = 2007,
    option_flip_noise: float = _OPTION_FLIP_NOISE,
) -> HiddenTable:
    """Generate the synthetic Yahoo! Auto table with *m* listings.

    The default size matches the paper's DBGen-expanded dataset; experiments
    routinely pass a smaller *m* (the generator preserves all the
    distributional structure at any size).  ``option_flip_noise`` controls
    how far individual cars stray from their trim package: smaller values
    give tighter clusters (deeper top-valid nodes, more plain-walk
    variance).
    """
    rng = spawn_rng(seed)
    n_cat = len(CATEGORICAL_SPECS)
    n_opt = len(OPTION_NAMES)
    schema = yahoo_auto_schema()

    # Trim packages: one fixed option bit-pattern per (make, model, tier),
    # drawn from the luxury/base-rate model so marginals stay realistic.
    package_rng = spawn_rng(int(rng.integers(2**31)) + 811)
    tier_shift = 0.35 * (np.arange(4) / 3.0 - 0.4)  # base..loaded
    packages = np.empty((16, 16, 4, n_opt), dtype=np.int8)
    for mk in range(16):
        for slot in range(16):
            for tier in range(4):
                probs = np.clip(
                    _OPTION_BASE
                    + _OPTION_LUX * (_MAKE_LUXURY[mk] - 0.35)
                    + tier_shift[tier],
                    0.03,
                    0.97,
                )
                packages[mk, slot, tier] = package_rng.random(n_opt) < probs

    # -- categorical hierarchy -----------------------------------------
    make_probs = _zipf_probs(16, 0.9, rng, shuffle=False)
    # Per-make model distribution: a zipf vector rotated by the make index,
    # so each make concentrates mass on different model slots.
    model_base = _zipf_probs(16, 1.1, rng, shuffle=False)
    model_probs = np.stack([np.roll(model_base, mk * 3) for mk in range(16)])
    color_probs = _zipf_probs(12, 0.8, rng, shuffle=False)
    body_base = _zipf_probs(8, 0.7, rng, shuffle=False)
    body_probs = np.stack([np.roll(body_base, slot % 8) for slot in range(16)])
    fuel_base = np.array([0.86, 0.05, 0.04, 0.03, 0.015, 0.005])
    door_base = np.array([0.18, 0.07, 0.55, 0.15, 0.05])

    def draw_rows(count: int) -> Tuple[np.ndarray, np.ndarray]:
        data = np.empty((count, n_cat + n_opt), dtype=np.int8)
        make = rng.choice(16, size=count, p=make_probs)
        model = np.empty(count, dtype=np.int64)
        body = np.empty(count, dtype=np.int64)
        for mk in range(16):
            sel = make == mk
            cnt = int(sel.sum())
            if cnt:
                model[sel] = rng.choice(16, size=cnt, p=model_probs[mk])
        for slot in range(16):
            sel = model == slot
            cnt = int(sel.sum())
            if cnt:
                body[sel] = rng.choice(8, size=cnt, p=body_probs[slot])
        color = rng.choice(12, size=count, p=color_probs)
        # Hybrids cluster in high-luxury makes; shift fuel mix accordingly.
        lux = _MAKE_LUXURY[make]
        fuel = np.empty(count, dtype=np.int64)
        for mk in range(16):
            sel = make == mk
            cnt = int(sel.sum())
            if cnt:
                shift = _MAKE_LUXURY[mk] * 0.10
                probs = fuel_base.copy()
                probs[0] -= shift
                probs[2] += shift
                probs /= probs.sum()
                fuel[sel] = rng.choice(6, size=cnt, p=probs)
        doors = np.empty(count, dtype=np.int64)
        # Coupes/convertibles skew 2-door, SUVs/minivans skew 4/5-door.
        for bs in range(8):
            sel = body == bs
            cnt = int(sel.sum())
            if cnt:
                probs = door_base.copy()
                if bs in (3, 7):  # Coupe, Convertible
                    probs = np.array([0.70, 0.05, 0.15, 0.05, 0.05])
                elif bs in (1, 5):  # SUV, Minivan
                    probs = np.array([0.03, 0.04, 0.55, 0.33, 0.05])
                doors[sel] = rng.choice(5, size=cnt, p=probs)
        data[:, 0] = make
        data[:, 1] = model
        data[:, 2] = color
        data[:, 3] = body
        data[:, 4] = fuel
        data[:, 5] = doors

        # -- Boolean options: trim package of the (make, model, tier), with
        # small per-car flip noise.  The clustering is what makes the
        # dataset "skewed" in the paper's query-tree sense.
        tier = rng.choice(4, size=count, p=_TIER_PROBS)
        option_bits = packages[make, model, tier]
        flips = rng.random((count, n_opt)) < option_flip_noise
        data[:, n_cat:] = option_bits ^ flips
        trim = tier / 3.0
        return data, trim

    data, trim = draw_rows(m)
    for _ in range(_MAX_DEDUP_ROUNDS):
        _, first_idx = np.unique(data, axis=0, return_index=True)
        if first_idx.size == m:
            break
        dup_mask = np.ones(m, dtype=bool)
        dup_mask[first_idx] = False
        n_dups = int(dup_mask.sum())
        fresh, fresh_trim = draw_rows(n_dups)
        data[dup_mask] = fresh
        trim[dup_mask] = fresh_trim
    else:
        raise ValueError("yahoo_auto deduplication did not converge")

    # -- measures ---------------------------------------------------------
    make = data[:, 0].astype(np.int64)
    model = data[:, 1].astype(np.int64)
    year = rng.choice(
        np.arange(1998, 2008),
        size=m,
        p=np.array([2, 3, 4, 6, 8, 10, 12, 15, 20, 20], dtype=float) / 100.0,
    ).astype(float)
    age = 2007.0 - year
    price = (
        _MAKE_BASE_PRICE[make]
        * (0.8 + 0.05 * model)
        * (1.0 + 0.4 * trim)
        * (0.93**age)
        * np.exp(rng.normal(0.0, 0.18, size=m))
    )
    mileage = np.clip(
        rng.lognormal(mean=0.0, sigma=0.5, size=m) * (8000.0 + 11000.0 * age),
        500.0,
        None,
    )
    measures = {
        "PRICE": np.round(price, 0),
        "MILEAGE": np.round(mileage, 0),
        "YEAR": year,
    }
    return HiddenTable(schema, data, measures)
