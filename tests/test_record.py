"""The library's record classes keep the behaviour of frozen dataclasses
without importing ``dataclasses``."""

import os
import pathlib
import subprocess
import sys

import pytest

import roachkit
from roachkit import _program as P
from roachkit import acceptance as A
from roachkit import construct as C
from roachkit import decision as D
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import morphisms as M
from roachkit import ordinals as O
from roachkit import roach as R
from roachkit import semantics as S
from roachkit.errors import FrameFormatError

SRC = str(pathlib.Path(roachkit.__file__).parent.parent)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = "import roachkit.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert proc.stdout == "[]\n"


def _samples():
    """One instance of every record class in the library."""
    p, q = fm.Var("p"), fm.Var("q")
    f1, f3 = R.builtin("F1"), R.builtin("F3")
    pm = M.identity_morphism(f1)
    cert = R.splitting_certificate(f3, 3)
    ln = O.LogicId("LN", n=2)
    return [
        f1, F.classify_frame(f1), p, fm.TOP, fm.BOT, fm.Not(p), fm.And(p, q), fm.Or(p, q),
        fm.Implies(p, q), fm.Box(p), fm.Diamond(q), P.compile_formula(fm.parse("[]p -> p")),
        S.Model(f1, {"p": {1}}), pm, M.Violation("forth", (0, 1)),
        M.Permissibility(0, (0, 1, 2, 3), pm), C.UnravelResult(f1, pm), cert,
        R.ForbiddenWitness("F1", 0, (0, 1, 2, 3), pm),
        D.Refuted(S.Model(f1, {}), 0), D.NoCountermodelUpTo(3), O.parse_ordinal("w^2 + 1"),
        O.LogicId("Meet", left=ln, right=O.LogicId("S412")),
        A.CriterionResult("decide", True, "exact", 0.5),
    ]


def test_every_record_class_has_a_sample():
    records = {cls for module in vars(roachkit).values() if isinstance(module, type(roachkit))
               for cls in vars(module).values()
               if isinstance(cls, type) and "__match_args__" in cls.__dict__}
    assert len(records) == 24
    assert records == {type(obj) for obj in _samples()}


@pytest.mark.parametrize("obj", _samples(), ids=lambda obj: type(obj).__name__)
def test_record_semantics(obj):
    cls = type(obj)
    names = cls.__match_args__
    values = tuple(getattr(obj, name) for name in names)
    # equal copies from positional and from keyword arguments
    for copy in (cls(*values), cls(**dict(zip(names, values)))):
        assert copy == obj and not copy != obj
        assert repr(copy) == repr(obj)
    # no record equals an instance of another class, even with equal fields
    for other in _samples():
        if type(other) is not cls:
            assert obj != other and not obj == other
    assert obj.__eq__(object()) is NotImplemented
    try:
        expected = hash(values)
    except TypeError:  # a Model's valuation is a dict
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(getattr(obj, name) for name in names) == values


def test_cross_class_inequality_with_equal_fields():
    p, q = fm.Var("p"), fm.Var("q")
    assert fm.And(p, q) != fm.Or(p, q)
    assert fm.Box(p) != fm.Diamond(p) and fm.TOP != fm.BOT
    assert len({fm.And(p, q), fm.Or(p, q), fm.Implies(p, q), fm.And(p, q)}) == 3


def test_match_args_name_the_fields_in_order():
    assert fm.And.__match_args__ == ("left", "right")
    assert F.Frame.__match_args__ == ("size", "up", "labels")
    match fm.Implies(fm.Var("p"), fm.BOT):
        case fm.Implies(fm.Var(name), fm.Bot()):
            assert name == "p"
        case _:
            pytest.fail("positional class pattern did not match")


def test_post_init_still_validates():
    with pytest.raises(FrameFormatError):
        F.Frame(2, (1,))
    with pytest.raises(FrameFormatError):
        S.Model(R.builtin("F1"), {"p": 5})
    with pytest.raises(ValueError):
        O.Ordinal(((O.from_int(1), 0),))


def test_bad_constructor_arguments_raise_type_error():
    p = fm.Var("p")
    for call in (lambda: fm.And(p), lambda: fm.And(p, p, p), lambda: fm.Not(p, operand=p),
                 lambda: fm.Not(oprand=p), lambda: F.Frame(size=1)):
        with pytest.raises(TypeError):
            call()
    assert F.Frame(1, (1,)).labels is None and F.Frame(1, (1,), ("a",)).labels == ("a",)


def test_pinned_reprs():
    """The reprs of these records, as dataclasses printed them."""
    assert repr(D.decide_lr2(fm.axiom("ga"), 4)) == (
        "Refuted(model=Model(frame=Frame(size=3, edges=[(0, 1), (0, 2)]), "
        "valuation={'p': {1}}), world=0)"
    )
    assert repr(D.decide_lr2(fm.parse("[]<>p -> <>[]p"), 3)) == "NoCountermodelUpTo(bound=3)"
    roach = list(F.enumerate_frames(4, "2-roach"))[-1]
    assert repr(M.find_onto_p_morphism(roach, F.normalize_frame([(0, 1)], 2))) == (
        "PMorphism(source=Frame(size=4, edges=[(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), "
        "(1, 3), (2, 0), (2, 1), (2, 3)]), target=Frame(size=2, edges=[(0, 1)]), "
        "mapping=(0, 0, 0, 1))"
    )
    assert repr(R.is_2_roach(roach)) == "SplittingCertificate(s=3, bound=2, t=(3, 3, 3, 3))"
    assert repr(R.splitting_certificate(R.builtin("F3"), 3)) == (
        "SplittingCertificate(s=0, bound=3, t=(0, 1, 2, 3, 4))"
    )
    assert repr(O.classify_beta_logic(O.parse_ordinal("w^2"))) == (
        "LogicId(kind='LN', n=2, left=None, right=None)"
    )
    assert repr(fm.parse("p & ~[]q")) == (
        "And(left=Var(name='p'), right=Not(operand=Box(operand=Var(name='q'))))"
    )
    assert repr(fm.TOP) == "Top()"
