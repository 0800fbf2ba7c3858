from functools import partial
from itertools import product

import numpy as np
import pytest

from rcalab import analysis
from rcalab.analysis import (
    analyze_rule,
    build_de_bruijn,
    is_balanced,
    preimage_count_oracle,
)
from rcalab.entropy import CapExceededError
from rcalab.lattice import Alphabet, decode_patterns, encode_patterns, pattern_strides
from rcalab.rules import (
    LocalRule,
    apply_table,
    build_elementary,
    build_linear,
    lift_second_order,
)

Z2 = Alphabet((2,))
Z3 = Alphabet((3,))


def test_de_bruijn_counts():
    auto = build_de_bruijn(build_elementary(90))
    assert auto.n_states == 4 and auto.n_edges == 8
    # every state has |Sigma| outgoing and |Sigma| incoming edges
    outs = np.zeros(4, dtype=int)
    ins = np.zeros(4, dtype=int)
    for w in range(8):
        src, dst = w // auto.size, w % auto.n_states
        outs[src] += 1
        ins[dst] += 1
    assert (outs == 2).all() and (ins == 2).all()


def test_de_bruijn_edge_labels():
    auto = build_de_bruijn(build_elementary(90))
    # edge 00 -> 01 carries the merged word 001 and label f(0,0,1) = 1
    assert auto.labels[0b001] == 1
    # identity rule: label depends only on the middle symbol
    auto204 = build_de_bruijn(build_elementary(204))
    for w in range(8):
        assert auto204.labels[w] == (w >> 1) & 1


KNOWN = {
    90: (True, False),
    102: (True, False),
    150: (True, False),
    170: (True, True),
    204: (True, True),
    0: (False, False),
    110: (False, False),
    128: (False, False),
}


@pytest.mark.parametrize("code,expected", sorted(KNOWN.items()))
def test_elementary_classification(code, expected):
    rule = build_elementary(code)
    assert (analysis.test_surjective(rule), analysis.test_injective(rule)) == expected


def test_injective_implies_surjective_all_elementary():
    for code in range(256):
        rule = build_elementary(code)
        if analysis.test_injective(rule):
            assert analysis.test_surjective(rule), f"rule {code}"


def test_preimage_count_examples():
    assert preimage_count_oracle(build_elementary(90), "0") == 4
    assert preimage_count_oracle(build_elementary(110), "0") == 3
    ident = build_linear(Z2, {0: 1})
    for w in ("0", "01", "110"):
        assert preimage_count_oracle(ident, w) == 1


def test_preimage_cap():
    with pytest.raises(CapExceededError):
        preimage_count_oracle(build_elementary(90), [0] * 30)


def test_balance_theorem_crosscheck():
    # surjective => every word up to length 8 has exactly |Sigma|^(m-1)
    # preimages; non-surjective => some short word deviates
    rng = np.random.default_rng(7)
    for code, (surjective, _) in KNOWN.items():
        rule = build_elementary(code)
        counts_ok = True
        witness = None
        for length in range(1, 9):
            words = [rng.integers(0, 2, size=length) for _ in range(4)]
            if length <= 4:  # exhaustive at short lengths
                words = [np.array(w) for w in product((0, 1), repeat=length)]
            for w in words:
                if preimage_count_oracle(rule, w) != 4:
                    counts_ok = False
                    witness = w
                    break
            if not counts_ok:
                break
        assert counts_ok == surjective, f"rule {code}, witness {witness}"


def test_surjective_balance_necessary():
    for code in range(256):
        rule = build_elementary(code)
        if analysis.test_surjective(rule):
            assert is_balanced(rule)


def _reflect(rule: LocalRule) -> LocalRule:
    table = np.empty(8, dtype=np.int64)
    for a, b, c in product((0, 1), repeat=3):
        table[(a << 2) | (b << 1) | c] = rule((c, b, a))
    return LocalRule(Z2, [(-1,), (0,), (1,)], table)


def _complement(rule: LocalRule) -> LocalRule:
    table = np.empty(8, dtype=np.int64)
    for a, b, c in product((0, 1), repeat=3):
        table[(a << 2) | (b << 1) | c] = 1 - rule((1 - a, 1 - b, 1 - c))
    return LocalRule(Z2, [(-1,), (0,), (1,)], table)


def test_conjugacy_invariance_all_elementary():
    for code in range(256):
        rule = build_elementary(code)
        s, i = analysis.test_surjective(rule), analysis.test_injective(rule)
        for conj in (_reflect(rule), _complement(rule)):
            assert analysis.test_surjective(conj) == s, f"rule {code}"
            assert analysis.test_injective(conj) == i, f"rule {code}"


def test_injective_matches_torus_collision_oracle():
    # injectivity on the full shift implies injectivity on every torus, and a
    # non-injective elementary rule always collides on a torus of size <= 14
    # (every non-diagonal pair-graph cycle is at most 16 long); the oracle is
    # pure enumeration
    def torus_collision(rule, max_size=14):
        for length in range(3, max_size + 1):
            configs = decode_patterns(np.arange(2 ** length, dtype=np.int64), length, 2)
            images = apply_table(configs, rule, batch_dims=1)
            codes = encode_patterns(images, 2)
            if np.unique(codes).size != 2 ** length:
                return length
        return None

    injective = []
    for code in range(256):
        rule = build_elementary(code)
        verdict = analysis.test_injective(rule)
        assert verdict == (torus_collision(rule) is None), code
        if verdict:
            injective.append(code)
    # shift, complement, identity and their mirror/complement combinations
    assert injective == [15, 51, 85, 170, 204, 240]


def test_surjective_matches_batch_preimage_oracle():
    # exhaustive sliding-window preimage counts for every word up to length 8
    def unbalanced_at(rule, max_len=8):
        strides3 = pattern_strides(3, 2)
        for length in range(1, max_len + 1):
            n_in = length + 2
            words = decode_patterns(np.arange(2 ** n_in, dtype=np.int64), n_in, 2)
            img = np.empty((2 ** n_in, length), dtype=np.int64)
            for i in range(length):
                img[:, i] = rule.table[words[:, i : i + 3] @ strides3]
            counts = np.bincount(img @ pattern_strides(length, 2), minlength=2 ** length)
            if not (counts == 4).all():
                return length
        return None

    n_surjective = 0
    for code in range(256):
        rule = build_elementary(code)
        verdict = analysis.test_surjective(rule)
        assert verdict == (unbalanced_at(rule) is None), code
        n_surjective += verdict
    assert n_surjective == 30


def test_linear_kernel_witness_agrees():
    # linear rule injective iff no nonzero periodic configuration maps to zero
    for code in (90, 102, 150, 170, 204, 60):
        rule = build_elementary(code)
        coeffs = _linear_coeffs_if_linear(rule)
        if coeffs is None:
            continue
        lin = build_linear(Z2, coeffs)
        has_kernel = False
        for size in range(3, 9):
            for cfg in product((0, 1), repeat=size):
                if any(cfg) and not apply_table(np.array(cfg), lin).any():
                    has_kernel = True
                    break
            if has_kernel:
                break
        assert analysis.test_injective(lin) == (not has_kernel), f"rule {code}"


def _linear_coeffs_if_linear(rule):
    # recover XOR coefficients when the elementary rule is additive
    c_left = rule((1, 0, 0))
    c_mid = rule((0, 1, 0))
    c_right = rule((0, 0, 1))
    coeffs = {-1: c_left, 0: c_mid, 1: c_right}
    for pat in product((0, 1), repeat=3):
        lin_out = (c_left * pat[0]) ^ (c_mid * pat[1]) ^ (c_right * pat[2])
        if rule(pat) != lin_out:
            return None
    return coeffs


def test_sparse_neighborhood_normalization():
    # rule reading offsets {-1, +1} only: padding must not change the verdicts
    lin = build_linear(Z2, {-1: 1, 1: 1})
    assert analysis.test_surjective(lin) == analysis.test_surjective(build_elementary(90))
    assert analysis.test_injective(lin) == analysis.test_injective(build_elementary(90))


def test_decision_envelope_guard():
    # a radius-5 binary rule has 1024 de Bruijn states, past the declared
    # envelope; the procedures must refuse rather than blow up
    big = build_linear(Z2, {-5: 1, 5: 1})
    with pytest.raises(CapExceededError):
        analysis.test_surjective(big)
    with pytest.raises(CapExceededError):
        analysis.test_injective(big)
    # radius-2 binary sits inside the envelope
    r2 = build_linear(Z2, {-2: 1, 2: 1})
    assert analysis.test_surjective(r2)
    assert not analysis.test_injective(r2)


def test_requires_one_dimension():
    rule2d = build_linear(Z2, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        analysis.test_surjective(rule2d)
    with pytest.raises(ValueError):
        preimage_count_oracle(rule2d, "01")


def test_ternary_shift_reversible():
    shift = build_linear(Z3, {1: 1})
    assert analysis.test_surjective(shift) and analysis.test_injective(shift)
    sum_rule = build_linear(Z3, {0: 1, 1: 1})
    assert analysis.test_surjective(sum_rule)
    assert not analysis.test_injective(sum_rule)


def test_analyze_rule_shape():
    out = analyze_rule(build_elementary(90))
    assert out == {"surjective": True, "injective": False, "balanced": True}


def _span_offsets(span):
    return [(o,) for o in range(-(span // 2), span - span // 2)]


def _random_rule(alphabet, span, rng):
    table = rng.integers(0, alphabet.size, size=alphabet.size ** span)
    return LocalRule(alphabet, _span_offsets(span), table)


def _permutive(alphabet, span, rng, right=False):
    # x_first + g(rest) mod |Sigma|, or g(rest) + x_last with right=True; the
    # first offset is the most significant digit of the table index
    size = alphabet.size
    g = rng.integers(0, size, size=size ** (span - 1))
    codes = np.arange(size ** span)
    if right:
        rest, digit = np.divmod(codes, size)
    else:
        digit, rest = np.divmod(codes, size ** (span - 1))
    return LocalRule(alphabet, _span_offsets(span), (digit + g[rest]) % size)


def _compose(f, g):
    # one contiguous rule for the global map x -> f(g(x))
    size, nf, ng = f.alphabet.size, len(f.neighborhood), len(g.neighborhood)
    span = nf + ng - 1
    words = decode_patterns(np.arange(size ** span, dtype=np.int64), span, size)
    inner = np.stack(
        [g.table[words[:, i : i + ng] @ pattern_strides(ng, size)] for i in range(nf)], axis=1
    )
    return LocalRule(f.alphabet, _span_offsets(span), f.table[inner @ pattern_strides(nf, size)])


def _random_composite(rng):
    makers = (_random_rule, _permutive, partial(_permutive, right=True))
    f, g = (makers[rng.integers(0, 3)](Z2, 3, rng) for _ in range(2))
    return _compose(f, g)


# (seed, rule family); radius-4 binary rules have 256 de Bruijn states, the
# edge of the decision envelope
VERDICT_FAMILIES = {
    "random-binary-span5": (11, lambda rng: [_random_rule(Z2, 5, rng) for _ in range(60)]),
    "random-ternary-span3": (12, lambda rng: [_random_rule(Z3, 3, rng) for _ in range(60)]),
    "random-binary-radius4": (13, lambda rng: [_random_rule(Z2, 9, rng) for _ in range(3)]),
    "left-permutive-binary-span5": (14, lambda rng: [_permutive(Z2, 5, rng) for _ in range(20)]),
    "left-permutive-ternary-span3": (15, lambda rng: [_permutive(Z3, 3, rng) for _ in range(10)]),
    "left-permutive-binary-radius4": (16, lambda rng: [_permutive(Z2, 9, rng) for _ in range(3)]),
    "composites-binary-span5": (17, lambda rng: [_random_composite(rng) for _ in range(40)]),
    "second-order-lifts": (
        0,
        lambda rng: [
            lift_second_order(build_elementary(code))
            for code in (0, 30, 54, 90, 110, 150, 184, 204, 232)
        ],
    ),
    # Z2 x Z2 rules of span 5: 256 de Bruijn states on a 4-letter alphabet
    "second-order-lift-composites": (
        0,
        lambda rng: [
            _compose(lift_second_order(build_elementary(a)), lift_second_order(build_elementary(b)))
            for a, b in ((30, 110), (90, 184))
        ],
    ),
}

# One character per rule, (surjective, injective): "-" neither, "s" surjective
# only, "i" injective only, "b" both.  Recorded with an independent pair of
# procedures (a subset construction on the de Bruijn automaton for
# surjectivity, a separately built pair graph for injectivity).
PINNED_VERDICTS = {
    "composites-binary-span5": "ss--ss-ss-s--ss-s--ss-s-ss-s-s-ssss----s",
    "left-permutive-binary-radius4": "sss",
    "left-permutive-binary-span5": "s" * 20,
    "left-permutive-ternary-span3": "s" * 10,
    "random-binary-radius4": "---",
    "random-binary-span5": "-" * 60,
    "random-ternary-span3": "-" * 60,
    "second-order-lift-composites": "bb",
    "second-order-lifts": "b" * 9,
}

_VERDICT_CODE = {(False, False): "-", (True, False): "s", (False, True): "i", (True, True): "b"}


def _verdicts(family):
    seed, make = VERDICT_FAMILIES[family]
    rules = make(np.random.default_rng(seed))
    return "".join(
        _VERDICT_CODE[analysis.test_surjective(r), analysis.test_injective(r)] for r in rules
    )


@pytest.mark.parametrize("family", sorted(VERDICT_FAMILIES))
def test_pinned_verdicts(family):
    assert _verdicts(family) == PINNED_VERDICTS[family]
