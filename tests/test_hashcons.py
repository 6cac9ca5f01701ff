"""Hash-consed terms and labels: one live object per value, identity
equality, one constructor, a weak intern table, thread-safe construction
and the old order of names."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

from piworkbench import syntax
from piworkbench.congruence import normalize
from piworkbench.semantics import TAU, BoundOutput, FreeOutput, InputLab, Tau
from piworkbench.syntax import (NIL, OK, Hole, Input, Name, Nil, Output, Par,
                                Repl, Restrict, Success, substitute,
                                substitute_all)
from piworkbench.text import parse_term

x, y, z, a = (Name(n) for n in "xyza")


def test_equal_terms_are_one_object():
    assert Name("x") is x
    assert Name("x", reserved=False) is Name("x", False) is x
    assert Name("x", reserved=True) is not x
    assert Nil() is NIL and Success() is OK
    assert Hole(1) is Hole(1)
    p = Par(Output(x, y, NIL), Restrict(a, Input(a, z, Repl(Output(z, x, NIL)))))
    q = Par(Output(x, y, NIL), Restrict(a, Input(a, z, Repl(Output(z, x, NIL)))))
    assert p is q
    assert hash(p) == object.__hash__(q)
    assert Tau() is TAU
    for label in (FreeOutput, BoundOutput, InputLab):
        assert label(x, y) is label(x, y) is not label(y, x)
        assert hash(label(x, y)) == object.__hash__(label(x, y))
    assert FreeOutput(x, y) != BoundOutput(x, y)


def test_parse_substitute_and_normalize_return_the_built_object():
    p = parse_term("x!y | (nu a)a?(z).!z!x")
    assert p is Par(Output(x, y, NIL), Restrict(a, Input(a, z, Repl(Output(z, x, NIL)))))
    assert substitute(parse_term("x!a"), a, y) is Output(x, y, NIL)
    assert substitute_all(parse_term("x!y"), {x: y, y: x}) is parse_term("y!x")
    # congruent presentations normalize to one object
    assert normalize(parse_term("0 | y?(a).a!x | x!y")) is normalize(parse_term("x!y | y?(b).b!x"))
    nf = normalize(parse_term("(nu b)(b!x | x?(c).c!b)"))
    assert Restrict(nf.binder, nf.body) is nf
    assert normalize(nf) is nf


def test_intern_table_does_not_keep_terms_alive():
    p = Output(Name("only-here"), Name("only-here-too"), NIL)
    assert (Output, p.chan, p.datum, NIL) in syntax._TABLE
    refs = [weakref.ref(p), weakref.ref(p.chan), weakref.ref(p.datum)]
    del p
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert not [k for k in syntax._TABLE if "only-here" in k or "only-here-too" in k]
    # built again, it is a new object that is interned again
    assert Output(Name("only-here"), Name("only-here-too"), NIL) is Output(
        Name("only-here"), Name("only-here-too"), NIL
    )
    # and so does a label
    label = InputLab(Name("label-only"), x)
    assert (InputLab, label.chan, x) in syntax._TABLE
    ref = weakref.ref(label)
    del label
    gc.collect()
    assert ref() is None
    assert not [k for k in syntax._TABLE if Name("label-only") in k]


def test_terms_are_immutable():
    for target, field in ((x, "ident"), (Output(x, y, NIL), "cont"), (NIL, "anything"),
                          (FreeOutput(x, y), "datum"), (TAU, "anything")):
        try:
            setattr(target, field, None)
        except AttributeError:
            pass
        else:
            raise AssertionError(f"assigned {field} of {target!r}")
        try:
            delattr(target, field)
        except AttributeError:
            pass
        else:
            raise AssertionError(f"deleted {field} of {target!r}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_wrong_field_count_is_refused_without_a_table_entry():
    classes = set(_subclasses(syntax._Term))
    assert classes >= {Name, Nil, Success, Output, Input, Par, Restrict, Repl, Hole,
                       Tau, FreeOutput, BoundOutput, InputLab}
    before = dict(syntax._TABLE)
    for cls in classes:
        arity = len(cls.__match_args__)
        least = 1 if cls is Name else arity  # a name's `reserved` has a default
        for count in [arity + 1] + ([least - 1] if least else []):
            try:
                cls(*[x] * count)
            except TypeError:
                pass
            else:
                raise AssertionError(f"{cls.__name__} built from {count} fields")
    assert syntax._TABLE.keys() == before.keys()


def test_pickle_and_deepcopy_return_the_interned_object():
    p = Par(Output(x, y, NIL), Restrict(a, Input(a, z, Repl(OK))))
    for value in (x, Name("x", reserved=True), NIL, p, Hole(2), TAU,
                  FreeOutput(x, y), BoundOutput(x, z), InputLab(a, z)):
        assert pickle.loads(pickle.dumps(value)) is value
        assert copy.deepcopy(value) is value
        assert copy.copy(value) is value


def test_concurrent_construction_yields_one_object_per_term():
    threads, rounds, count = 4, 5, 400
    built = [None] * threads

    def build(slot, barrier, tag):
        barrier.wait(timeout=60)
        built[slot] = [
            Par(Output(Name(f"{tag}c{i}"), Name(f"{tag}d{i}"), NIL), Repl(Input(Name(f"{tag}c{i}"), x, NIL)))
            for i in range(count)
        ]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            barrier = threading.Barrier(threads)
            workers = [
                threading.Thread(target=build, args=(k, barrier, f"race{r}-"))
                for k in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
                assert not w.is_alive()
            for i in range(count):
                assert len({id(terms[i]) for terms in built}) == 1, (r, i)
                assert len({id(terms[i].left.chan) for terms in built}) == 1, (r, i)
    finally:
        sys.setswitchinterval(old)


def test_names_sort_by_ident_then_reserved():
    rng = random.Random(5)
    idents = ["a", "b", "a'", "r0", "r10", "r2", "tmp0", "x", "w1", "B", "_z"]
    pool = [Name(i, r) for i in idents for r in (False, True)]
    for _ in range(20):
        rng.shuffle(pool)
        assert sorted(pool) == sorted(pool, key=lambda n: (n.ident, n.reserved))
    assert Name("a") < Name("a", reserved=True) < Name("b")
    assert Name("b") > Name("a", reserved=True) >= Name("a", reserved=True)
    assert max(pool) is Name("x", reserved=True) and min(pool) is Name("B")
