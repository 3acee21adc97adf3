import numpy as np
import pytest

from lognls.grid import Grid, GridField, node_axes


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid_1d():
    return Grid(1, 10.0, 257)


@pytest.fixture
def grid_2d():
    return Grid(2, 7.0, 65)


def node_table(grid: Grid) -> np.ndarray:
    """All node coordinates as a (num_nodes, dim) table in row-major order
    (the last coordinate fastest), spelled out from the open mesh."""
    return np.column_stack([x.ravel() for x in np.broadcast_arrays(*node_axes(grid))])


def smooth_field(grid: Grid, rng, n_bumps: int = 4, positive: bool = False) -> GridField:
    """Random decaying mixture of Gaussian bumps; widths stay off extremal values."""
    pts = node_table(grid)
    values = np.zeros(grid.num_nodes)
    for _ in range(n_bumps):
        center = rng.uniform(-3.0, 3.0, size=grid.dim)
        width = rng.uniform(0.7, 2.2)
        amp = rng.uniform(0.5, 2.0) * (1.0 if positive else rng.choice([-1.0, 1.0]))
        values += amp * np.exp(-np.sum((pts - center) ** 2, axis=1) / (2 * width**2))
    if positive:
        values = np.abs(values) + 1e-3 * np.exp(-np.sum(pts**2, axis=1) / 2)
    return GridField(grid, values)


def count_grid_calls(monkeypatch, name: str) -> list:
    """Wrap the grid kernel ``name`` in every lognls namespace that bound it
    at import time (the grid module included, so kernels that call it inside
    the grid count too) and return the list each call appends its grid to."""
    import sys

    import lognls.grid as grid_mod

    original = getattr(grid_mod, name)
    calls = []

    def counted(grid, *args):
        calls.append(grid)
        return original(grid, *args)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("lognls") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls
