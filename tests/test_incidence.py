import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heconet.core import (Capability, Flow, Operand, Process, ProcessKind,
                          Resource, ResourceKind, SystemModel)
from heconet.incidence import IncidenceMatrices, build_incidence
from heconet.io import read_incidence_json, write_incidence_json

from conftest import ECONOMY_M_MINUS, ECONOMY_M_PLUS


def test_economy_incidence_bit_for_bit(economy_incidence):
    inc = economy_incidence
    assert np.array_equal(inc.m_plus, ECONOMY_M_PLUS)
    assert np.array_equal(inc.m_minus, ECONOMY_M_MINUS)
    assert np.array_equal(inc.m, ECONOMY_M_PLUS - ECONOMY_M_MINUS)


def test_operand_major_row_order(economy_incidence):
    inc = economy_incidence
    assert inc.place_labels == tuple(
        (o, "economy") for o in ("man", "cons", "ag", "capital", "water"))
    assert inc.row_index[("ag", "economy")] == 2
    assert inc.col_index["c4"] == 3
    assert inc.row("water", "economy") == 4


@pytest.mark.parametrize("field, ids", [("operands", ("a", "b", "a")),
                                        ("buffers", ("x", "x")),
                                        ("capabilities", ("c1", "c1"))])
def test_incidence_rejects_repeated_ids(field, ids):
    names = {"operands": ("a",), "buffers": ("x",), "capabilities": ("c1",), field: ids}
    shape = (len(names["operands"]) * len(names["buffers"]), len(names["capabilities"]))
    with pytest.raises(ValueError, match=f"^{field} must be distinct; '{ids[-1]}' is repeated$"):
        IncidenceMatrices(np.zeros(shape), np.zeros(shape), **names)


def test_incidence_rejects_colliding_place_names():
    # operand "a@b" at buffer "c" and operand "a" at buffer "b@c" both
    # compose the place name "a@b@c"
    with pytest.raises(ValueError, match="^place names must be distinct; 'a@b@c' is repeated$"):
        IncidenceMatrices(np.zeros((4, 1)), np.zeros((4, 1)), operands=("a@b", "a"),
                          buffers=("c", "b@c"), capabilities=("t",))


def test_support_masks(economy_incidence):
    plus, minus = economy_incidence.support()
    assert plus.dtype == bool and minus.dtype == bool
    assert np.array_equal(plus, ECONOMY_M_PLUS != 0)
    assert np.array_equal(minus, ECONOMY_M_MINUS != 0)


def test_equals(economy_incidence):
    clone = IncidenceMatrices(
        m_plus=economy_incidence.m_plus.copy(),
        m_minus=economy_incidence.m_minus.copy(),
        operands=economy_incidence.operands,
        buffers=economy_incidence.buffers,
        capabilities=economy_incidence.capabilities)
    assert clone.equals(economy_incidence)


def test_arrays_read_only(economy_incidence):
    with pytest.raises(ValueError):
        economy_incidence.m_plus[0, 0] = 99.0


def test_shape_and_value_validation():
    with pytest.raises(ValueError):
        IncidenceMatrices(np.ones((2, 1)), np.zeros((1, 1)), ("a",), ("b",), ("c",))
    with pytest.raises(ValueError):
        IncidenceMatrices(np.full((1, 1), np.nan), np.zeros((1, 1)), ("a",), ("b",), ("c",))
    with pytest.raises(ValueError):
        IncidenceMatrices(np.full((1, 1), -1.0), np.zeros((1, 1)), ("a",), ("b",), ("c",))


def two_buffer_model():
    return SystemModel(
        operands=(Operand("raw", "", "kgal"), Operand("clean", "", "kgal")),
        resources=(Resource("plant", "", ResourceKind.TRANSFORMATION),
                   Resource("tank", "", ResourceKind.INDEPENDENT_BUFFER),
                   Resource("pipe", "", ResourceKind.TRANSPORTATION)),
        processes=(
            Process("treat", "", ProcessKind.TRANSFORMATION,
                    (Flow("raw", 1.0),), (Flow("clean", 0.9),)),
            Process("ship", "", ProcessKind.REFINED_TRANSPORTATION,
                    (Flow("clean", 1.0),), (Flow("clean", 1.0),))),
        capabilities=(
            Capability("t1", "plant", "treat", {"raw": "plant"}, {"clean": "plant"}),
            Capability("t2", "pipe", "ship", {"clean": "plant"}, {"clean": "tank"})))


def test_multi_buffer_rows():
    inc = build_incidence(two_buffer_model())
    # operand-major: raw@plant, raw@tank, clean@plant, clean@tank
    assert inc.place_labels == (("raw", "plant"), ("raw", "tank"),
                                ("clean", "plant"), ("clean", "tank"))
    expected_minus = np.zeros((4, 2))
    expected_minus[0, 0] = 1.0      # treat pulls raw at the plant
    expected_minus[2, 1] = 1.0      # ship pulls clean at the plant
    expected_plus = np.zeros((4, 2))
    expected_plus[2, 0] = 0.9       # treat pushes clean at the plant
    expected_plus[3, 1] = 1.0       # ship pushes clean into the tank
    assert np.array_equal(inc.m_minus, expected_minus)
    assert np.array_equal(inc.m_plus, expected_plus)


def test_split_at_the_products(economy_incidence):
    (i_plus, i_minus, products), (f_plus, f_minus, factors) = economy_incidence.split(3)
    assert products == ("man", "cons", "ag") and factors == ("capital", "water")
    assert np.array_equal(np.vstack([i_plus, f_plus]), ECONOMY_M_PLUS)
    assert np.array_equal(np.vstack([i_minus, f_minus]), ECONOMY_M_MINUS)
    for n_products in (0, 6):
        with pytest.raises(ValueError, match=r"n_products must be in 1\.\.5"):
            economy_incidence.split(n_products)
    with pytest.raises(ValueError, match="requires a single buffer, got 2"):
        build_incidence(two_buffer_model()).split(1)


def test_repeated_flows_accumulate():
    model = SystemModel(
        operands=(Operand("w", "", "u"),),
        resources=(Resource("b", "", ResourceKind.TRANSFORMATION),),
        processes=(Process("p", "", ProcessKind.TRANSFORMATION,
                           (Flow("w", 1.0), Flow("w", 2.0)), (Flow("w", 1.0),)),),
        capabilities=(Capability("c", "b", "p", {"w": "b"}, {"w": "b"}),))
    inc = build_incidence(model)
    assert inc.m_minus[0, 0] == 3.0


def test_build_rejects_invalid_model():
    model = SystemModel((), (), (), ())
    with pytest.raises(Exception):
        build_incidence(model)


@given(
    arrays(np.float64, (3, 2), elements=st.floats(0, 10, allow_nan=False)),
    arrays(np.float64, (3, 2), elements=st.floats(0, 10, allow_nan=False)),
)
@settings(max_examples=50, deadline=None)
def test_m_is_the_read_only_difference(m_plus, m_minus):
    inc = IncidenceMatrices(m_plus, m_minus, operands=("a", "b", "c"), buffers=("x",),
                            capabilities=("u", "v"))
    assert inc.m.tobytes() == (m_plus - m_minus).tobytes()
    with pytest.raises(ValueError):
        inc.m[0, 0] = 1.0
    again = read_incidence_json(write_incidence_json(inc))
    assert again.m.tobytes() == inc.m.tobytes()
    assert not again.m.flags.writeable
    plus, minus = inc.support()
    assert np.all((~plus | (inc.m_plus != 0)))
    assert np.all((~minus | (inc.m_minus != 0)))
