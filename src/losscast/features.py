"""Config batching: schema-ordered arrays for model consumption."""

from __future__ import annotations

import numpy as np

from .schema import RunConfig, Schema, SchemaError


def encode_batch(schema: Schema, configs: list[RunConfig],
                 fracs: list[float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode configurations into (numerical, categorical) arrays.

    This is the one path from a configuration to model inputs, and it works a
    column at a time: ``Schema._field_values`` gives one row of raw values and
    tokens per distinct config object, each numerical column is scaled by one
    float64 multiply, and each categorical column is mapped through its
    field's token -> index dict. ``fracs`` gives each row's training-progress
    ratio on a frac schema. ``None`` is a final-loss query: every row gets
    frac 1.0 on a frac schema, and none on any other. A refusal names the
    first fault in row order.

    Returns X_num (n, n_numerical) float64 and X_cat (n, n_categorical) int64,
    columns in schema order within each kind.
    """
    if fracs is None:
        fracs = [1.0 if schema.include_frac else None] * len(configs)
    get_num, scales, frac_col, cats = schema._columns
    # a curve's rows repeat one config object with different fracs: build each
    # object's row once, then write each row's frac into its column
    rows, row_of, index_of = [], [], {}
    try:
        for c, f in zip(configs, fracs, strict=True):
            schema.check_frac(f)
            i = index_of.get(id(c))
            if i is None:
                i = index_of[id(c)] = len(rows)
                rows.append(schema._field_values(c))
            row_of.append(i)
    except (SchemaError, ValueError, TypeError):
        _category_indices(cats, rows)  # an earlier row's unknown token comes first
        raise
    x_num = np.array(list(map(get_num, rows)), dtype=np.float64).reshape(len(rows), len(scales))
    x_num *= scales
    x_cat = _category_indices(cats, rows)
    # fancy indexing returns C-ordered copies; BLAS may round a matmul
    # differently on another memory layout
    row_of = np.array(row_of, dtype=np.intp)
    x_num, x_cat = x_num[row_of], x_cat[row_of]
    if frac_col is not None:
        x_num[:, frac_col] = np.array(fracs, dtype=np.float64) * scales[frac_col]
    return x_num, x_cat


def _category_indices(cats, rows) -> np.ndarray:
    """The (len(rows), n_categorical) vocabulary indices of the rows' tokens;
    SchemaError naming the first unknown token in row order."""
    x_cat = np.empty((len(rows), len(cats)), dtype=np.int64)
    try:
        for j, (get, index, _) in enumerate(cats):
            x_cat[:, j] = list(map(index.__getitem__, map(get, rows)))
    except (KeyError, TypeError):
        for row in rows:
            for get, index, name in cats:
                try:
                    index[get(row)]
                except (KeyError, TypeError):
                    raise SchemaError(
                        f"unknown value '{get(row)}' for categorical field '{name}'"
                    ) from None
    return x_cat


def one_hot_matrix(schema: Schema, x_num: np.ndarray, x_cat: np.ndarray) -> np.ndarray:
    """Design matrix with numerical columns followed by one-hot categorical
    indicator columns, in schema order. Used by tree models."""
    cats = schema.categorical_fields()
    cols = [x_num]
    for j, spec in enumerate(cats):
        v = len(spec.vocabulary)
        block = np.zeros((x_cat.shape[0], v), dtype=np.float64)
        block[np.arange(x_cat.shape[0]), x_cat[:, j]] = 1.0
        cols.append(block)
    return np.concatenate(cols, axis=1)


def design_column_names(schema: Schema) -> list[str]:
    names = [s.name for s in schema.numerical_fields()]
    for spec in schema.categorical_fields():
        names.extend(f"{spec.name}={v}" for v in spec.vocabulary)
    return names
