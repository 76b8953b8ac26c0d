import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpcomb import (
    InvalidOrder,
    PrimeField,
    ResidueSet,
    ZeroDilation,
    ZeroInverse,
    dilate,
    is_prime,
    is_symmetric,
    multiplicative_subgroup,
)
from fpcomb.field import _log_tables


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
        for n in range(45):
            assert is_prime(n) == (n in primes)

    def test_large_prime_and_composite(self):
        assert is_prime(99991)
        assert is_prime(2**61 - 1)
        assert not is_prime(99991 * 99989)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


class TestPrimeField:
    def test_rejects_composites_and_two(self):
        with pytest.raises(ValueError):
            PrimeField(10)
        with pytest.raises(ValueError):
            PrimeField(2)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_inverse(self):
        fld = PrimeField(101)
        for x in range(1, 101):
            assert fld.inverse(x) * x % 101 == 1
        with pytest.raises(ZeroInverse):
            fld.inverse(0)
        with pytest.raises(ZeroInverse):
            fld.inverse(101)

    def test_primitive_root(self):
        for p in (3, 5, 7, 101, 499):
            fld = PrimeField(p)
            g = fld.primitive_root()
            powers = {pow(g, k, p) for k in range(p - 1)}
            assert powers == set(range(1, p))

    def test_fields_hashable_and_equal(self):
        assert PrimeField(7) == PrimeField(7)
        assert hash(PrimeField(7)) == hash(PrimeField(7))


class TestResidueSet:
    def test_canonical_sorted_dedup(self):
        a = ResidueSet(PrimeField(7), (9, 2, 2, -1))
        assert a.elements == (2, 6)

    def test_of_accepts_int_or_field(self):
        assert ResidueSet.of(7, [1, 2]).elements == (1, 2)
        assert ResidueSet.of(PrimeField(7), [1, 2]).p == 7

    def test_indicator_and_contains(self):
        a = ResidueSet.of(5, [0, 3])
        assert a.indicator() == [1, 0, 0, 1, 0]
        assert 3 in a and 8 in a and 1 not in a
        assert len(a) == 2
        assert list(a) == [0, 3]

    def test_negate_translate_complement(self):
        a = ResidueSet.of(7, [1, 2])
        assert a.negate().elements == (5, 6)
        assert a.translate(6).elements == (0, 1)
        assert a.complement().elements == (0, 3, 4, 5, 6)


class TestDilate:
    def test_values(self):
        a = ResidueSet.of(7, [1, 2, 4])
        assert dilate(a, 2).elements == (1, 2, 4)
        assert dilate(a, 3).elements == (3, 5, 6)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDilation):
            dilate(ResidueSet.of(7, [1]), 0)
        with pytest.raises(ZeroDilation):
            dilate(ResidueSet.of(7, [1]), 7)

    def test_bijective(self, rng):
        fld = PrimeField(31)
        a = ResidueSet(fld, tuple(rng.sample(range(31), 10)))
        for s in range(1, 31):
            assert len(dilate(a, s)) == len(a)


class TestSymmetry:
    def test_is_symmetric(self):
        assert is_symmetric(ResidueSet.of(7, [0, 1, 6]))
        assert not is_symmetric(ResidueSet.of(7, [0, 1]))
        assert is_symmetric(ResidueSet.of(7, []))


class TestMultiplicativeSubgroup:
    def test_subgroup_p7_order3(self):
        fld = PrimeField(7)
        assert multiplicative_subgroup(fld, 3).elements == (1, 2, 4)

    def test_closure_inverse_identity(self):
        fld = PrimeField(101)
        for d in (1, 2, 4, 5, 10, 20, 25, 50, 100):
            g = multiplicative_subgroup(fld, d)
            assert len(g) == d
            assert 1 in g
            elems = g.as_set()
            for x in elems:
                assert pow(x, 101 - 2, 101) in elems
                for y in elems:
                    assert x * y % 101 in elems

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            multiplicative_subgroup(PrimeField(7), 4)
        with pytest.raises(InvalidOrder):
            multiplicative_subgroup(PrimeField(7), 0)


class TestLogTables:
    @pytest.mark.parametrize("p", [3, 5, 7, 101, 307, 1009])
    def test_round_trip(self, p):
        log, antilog = _log_tables(p)
        g = PrimeField(p).primitive_root()
        assert antilog.tolist() == [pow(g, k, p) for k in range(p - 1)]
        assert sorted(antilog.tolist()) == list(range(1, p))
        assert log[antilog].tolist() == list(range(p - 1))
        assert antilog[log[1:]].tolist() == list(range(1, p))
        assert log[0] == -1

    def test_cached_and_read_only(self):
        log, antilog = _log_tables(101)
        assert _log_tables(101)[1] is antilog
        with pytest.raises(ValueError):
            antilog[0] = 2
        with pytest.raises(ValueError):
            log[1] = 2

    def test_not_built_at_import(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        code = (
            "import fpcomb\n"
            "from fpcomb.field import _log_tables\n"
            "assert _log_tables.cache_info().currsize == 0\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
