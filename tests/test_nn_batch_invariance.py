"""Batch invariance of the layer arithmetic.

``Conv2D`` and ``Dense`` compute each row with its own fixed-shape
product, so a row's output bytes depend only on that row and the
weights: the same alone, inside any batch, and in any chunking of
one, in training and in inference.  Serving relies on this for
byte-identical logits however requests are coalesced
(``tests/test_serve_dispatch.py`` pins that end to end).  A numpy or
BLAS release that batched stacked matmuls differently fails here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential

PROPS = settings(derandomize=True, max_examples=100, deadline=None)


def assert_batch_invariant(forward, x, chunk):
    """``forward`` gives every row of ``x`` the same bytes alone, in
    chunks of ``chunk`` rows, and in the whole batch."""
    full = forward(x)
    alone = np.concatenate([forward(x[i:i + 1]) for i in range(len(x))])
    chunked = np.concatenate([
        forward(x[s:s + chunk]) for s in range(0, len(x), chunk)
    ])
    assert full.shape[0] == len(x)
    assert alone.tobytes() == full.tobytes()
    assert chunked.tobytes() == full.tobytes()


@st.composite
def conv_cases(draw):
    c = draw(st.integers(1, 3))
    h = draw(st.integers(3, 12))
    w = draw(st.integers(3, 12))
    k = draw(st.integers(1, min(h, w, 4)))
    layer = Conv2D(
        draw(st.integers(1, 5)), k,
        stride=draw(st.integers(1, 3)),
        padding=draw(st.sampled_from(["valid", "same"])),
    )
    seed = draw(st.integers(0, 2**16))
    layer.build((c, h, w), np.random.default_rng(seed))
    n = draw(st.integers(2, 24))
    x = np.random.default_rng(seed + 1).normal(size=(n, c, h, w))
    return layer, x


@st.composite
def dense_cases(draw):
    features = draw(st.integers(1, 96))
    layer = Dense(draw(st.integers(1, 16)))
    seed = draw(st.integers(0, 2**16))
    layer.build((features,), np.random.default_rng(seed))
    n = draw(st.integers(2, 40))
    x = np.random.default_rng(seed + 1).normal(size=(n, features))
    return layer, x


@st.composite
def model_cases(draw):
    hw = draw(st.integers(6, 12))
    layers = [Conv2D(draw(st.integers(1, 4)), draw(st.integers(2, 3))),
              ReLU()]
    if draw(st.booleans()):
        layers.append(MaxPool2D(2))
    layers += [Flatten(), Dense(draw(st.integers(2, 12))), ReLU(),
               Dense(draw(st.integers(2, 4)))]
    model = Sequential(layers)
    seed = draw(st.integers(0, 2**16))
    model.build((1, hw, hw), np.random.default_rng(seed))
    n = draw(st.integers(2, 24))
    x = np.random.default_rng(seed + 1).normal(size=(n, 1, hw, hw))
    return model, x


@PROPS
@given(conv_cases(), st.integers(1, 11), st.booleans())
def test_conv2d_rows_are_batch_invariant(case, chunk, training):
    layer, x = case
    assert_batch_invariant(
        lambda rows: layer.forward(rows, training=training), x, chunk
    )


@PROPS
@given(dense_cases(), st.integers(1, 11), st.booleans())
def test_dense_rows_are_batch_invariant(case, chunk, training):
    layer, x = case
    assert_batch_invariant(
        lambda rows: layer.forward(rows, training=training), x, chunk
    )


@PROPS
@given(model_cases(), st.integers(1, 11), st.booleans())
def test_sequential_rows_are_batch_invariant(case, chunk, training):
    model, x = case
    assert_batch_invariant(
        lambda rows: model.forward(rows, training=training), x, chunk
    )
