import hashlib
import io
import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from girthforge import lines4
from girthforge.errors import SizeLimitError
from girthforge.gf import make_field
from girthforge.graph import build
from girthforge.lines4 import (
    C4FreeFamily,
    GenLine,
    LineC4Witness,
    all_genlines,
    canonical_genline,
    genline_count,
    genline_text,
    greedy_c4free,
    has_line_c4,
    moment_seed,
    parse_family,
    validate_line_c4,
    write_family,
)
from girthforge.verify import count_cycles, first_cycle, iter_cycles
from helpers import (
    SAME_LINE,
    bitset,
    blocked,
    brute_force_line_c4,
    contains,
    from_edges,
    intersect,
    line_point_id,
    pairwise_greedy,
    pairwise_hits,
    pairwise_intersections,
    pairwise_line_c4,
    pivot,
    points_of,
    random_genline,
    record_dfs_roots,
    validate_bigraph,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

# Size of the family grown over GF(2)^4 with the default seed; a
# regression constant, any change means the ordering or detector moved.
GREEDY_F2_SEED0_SIZE = 29
GREEDY_F4_SEED0_SHA256 = "cbafffb9a4d363307e6ab98b9cc97926b73c9259cd0dacd27958f363d1e8cff0"


def test_canonical_examples():
    line = canonical_genline(F3, (0, 0, 0, 0), (0, 2, 1, 0))
    assert line.dir == (0, 1, 2, 0)
    assert pivot(line) == 1
    assert line.base[1] == 0


def test_canonical_rejects_zero_direction():
    with pytest.raises(ValueError):
        canonical_genline(F3, (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        canonical_genline(F3, (0, 0, 0), (1, 0, 0))


@pytest.mark.parametrize(
    "x,d",
    [
        ((0, 0, 0, 4), (1, 0, 0, 0)),
        ((0, 0, 0, 0), (1, 0, 4, 0)),
        ((-1, 0, 0, 0), (1, 0, 0, 0)),
    ],
)
def test_canonical_rejects_coordinates_outside_the_field(x, d):
    with pytest.raises(ValueError):
        canonical_genline(make_field(2, 2), x, d)


def test_canonical_is_representative_independent():
    rng = random.Random(11)
    for _ in range(150):
        q = F3.q
        d = tuple(rng.randrange(q) for _ in range(4))
        if not any(d):
            continue
        x = tuple(rng.randrange(q) for _ in range(4))
        line = canonical_genline(F3, x, d)
        c = rng.randrange(q)
        s = rng.randrange(1, q)
        x2 = tuple(F3.add(xi, F3.mul(c, di)) for xi, di in zip(x, d))
        d2 = tuple(F3.mul(s, di) for di in d)
        assert canonical_genline(F3, x2, d2) == line
        assert contains(F3, line, x)


def test_all_genlines_count_f2():
    lines = all_genlines(F2)
    assert len(lines) == len(set(lines)) == 120
    # every raw (x, d) pair lands inside the canonical set
    table = set(lines)
    for x in itertools.product(range(2), repeat=4):
        for d in itertools.product(range(2), repeat=4):
            if any(d):
                assert canonical_genline(F2, x, d) in table


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=repr)
def test_genline_count_matches_all_genlines(p, m):
    field = make_field(p, m)
    assert genline_count(field) == len(all_genlines(field))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=repr)
def test_all_genlines_are_made_in_sorted_order(p, m):
    lines = all_genlines(make_field(p, m))
    assert lines == sorted(lines)


def test_genline_count_closed_form():
    # The totals conjecture-greedy prints at q=3 and q=8.
    assert genline_count(F3) == 1080
    assert genline_count(make_field(2, 3)) == 299_520


def test_point_sets_match_canonical_equality():
    lines = all_genlines(F2)
    sets = {line: frozenset(points_of(F2, line)) for line in lines}
    assert len(set(sets.values())) == 120


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_points_of_lists_q_distinct_points_on_the_line(field):
    for line in all_genlines(field):
        pts = points_of(field, line)
        assert len(set(pts)) == field.q
        assert all(contains(field, line, pt) for pt in pts)


def test_intersect_basics():
    l1 = GenLine((1, 0, 0, 0), (0, 0, 0, 0))
    l2 = GenLine((0, 1, 0, 0), (0, 0, 0, 0))
    assert intersect(F2, l1, l1) is SAME_LINE
    assert intersect(F2, l1, GenLine((1, 0, 0, 0), (0, 1, 0, 0))) is None
    assert intersect(F2, l1, l2) == (0, 0, 0, 0)


def test_intersect_skew():
    l1 = GenLine((1, 0, 0, 0), (0, 0, 0, 0))
    l2 = GenLine((0, 1, 0, 0), (0, 0, 0, 1))
    assert intersect(F3, l1, l2) is None


def test_intersect_symmetric_exhaustive_f2():
    lines = all_genlines(F2)
    for a, b in itertools.combinations(lines, 2):
        r1 = intersect(F2, a, b)
        r2 = intersect(F2, b, a)
        assert r1 == r2 or (r1 is r2)


def test_intersect_agrees_with_point_sets_f2():
    lines = all_genlines(F2)
    sets = {line: set(points_of(F2, line)) for line in lines}
    for a, b in itertools.combinations(lines, 2):
        common = sets[a] & sets[b]
        r = intersect(F2, a, b)
        if len(common) == 0:
            assert r is None
        else:
            assert len(common) == 1 and r == common.pop()


def test_meeting_point_certificate_agrees_with_intersect_f2():
    # validate_line_c4 certifies that two distinct lines meet at a point by
    # canonicalising the line through the point in each line's direction.
    lines = all_genlines(F2)
    for a, b in itertools.combinations(lines, 2):
        for pt in points_of(F2, a):
            on_both = all(canonical_genline(F2, pt, line.dir) == line for line in (a, b))
            assert on_both == (intersect(F2, a, b) == pt)


def test_has_line_c4_planar_quadrilateral():
    e1, e2, zero = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)
    quad = [
        canonical_genline(F3, zero, e1),
        canonical_genline(F3, zero, e2),
        canonical_genline(F3, e2, e1),
        canonical_genline(F3, e1, e2),
    ]
    w = has_line_c4(F3, quad)
    assert w is not None
    validate_line_c4(F3, w)
    assert set(w.lines) == set(quad)


def test_has_line_c4_parallel_family():
    fam = [GenLine((1, 0, 0, 0), (0, b1, b2, 0)) for b1 in range(3) for b2 in range(3)]
    assert has_line_c4(F3, fam) is None


def test_has_line_c4_family_cap():
    # GF(7)^4 has 343 * 400 = 137200 lines, past the 2^16 family cap
    big = all_genlines(make_field(7))
    assert len(big) > 1 << 16
    with pytest.raises(SizeLimitError):
        has_line_c4(make_field(7), big)


def test_has_line_c4_refuses_a_field_past_the_line_cap():
    # GF(64)^4 has 2^24 points: the point id tables are refused before
    # any is made, however small the family.
    family = [GenLine((1, 0, 0, 0), (0, 0, 0, 0)), GenLine((0, 1, 0, 0), (0, 0, 0, 0))]
    with pytest.raises(SizeLimitError, match="^q\\^4 = 16777216 exceeds line cap 4194304$"):
        has_line_c4(make_field(2, 6), family)


def test_moment_seed_properties():
    for field in (F2, F3):
        seed = moment_seed(field)
        q = field.q
        assert len(seed) == len(set(seed)) == q**4
        for line in seed:
            z = line.dir[1]
            assert line.dir == (1, z, field.mul(z, z), field.mul(field.mul(z, z), z))
            assert line.base[0] == 0
        density = Fraction(len(seed), len(all_genlines(field)))
        assert density == Fraction(q**4 * (q - 1), q**3 * (q**4 - 1))


def test_moment_seed_matches_incidence_c8():
    w = has_line_c4(F2, moment_seed(F2))
    c8, _ = count_cycles(build(F2, 4), 8)
    assert (w is not None) == (c8 > 0)


def test_detector_matches_brute_force_random_families():
    rng = random.Random(99)
    for _ in range(20):
        fam = sorted({random_genline(F2, rng) for _ in range(rng.randint(4, 12))})
        got = has_line_c4(F2, fam)
        assert (got is not None) == brute_force_line_c4(F2, fam)
        if got is not None:
            validate_line_c4(F2, got)
            assert set(got.lines) <= set(fam)


def test_validate_line_c4_rejects_points_where_the_lines_do_not_meet():
    w = has_line_c4(F3, moment_seed(F3))
    assert w is not None and validate_line_c4(F3, w) is w
    p = w.points
    with pytest.raises(ValueError):
        validate_line_c4(F3, LineC4Witness(w.lines, (p[1], p[0], p[2], p[3])))


def _random_c4free(field, rng, tries):
    fam = C4FreeFamily(field)
    for _ in range(tries):
        fam.try_add(random_genline(field, rng))
    return fam


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_index_hits_match_pairwise_intersect(field):
    rng = random.Random(field.q)
    by_id = {line_point_id(field, pt): pt for pt in itertools.product(range(field.q), repeat=4)}
    for _ in range(5):
        fam = _random_c4free(field, rng, 60)
        multi = {by_id[pid]: idxs for pid, idxs in enumerate(fam._through) if len(idxs) > 1}
        assert multi == pairwise_hits(field, fam.lines)
        assert fam._at == [bitset(idxs) for idxs in fam._through]
        meets = [bitset(j for j, _ in pairwise_intersections(fam, line)) for line in fam.lines]
        assert fam._meets == meets
        for cand in (random_genline(field, rng) for _ in range(20)):
            if cand not in fam.lines:
                hits = fam._intersections(cand, fam._ids(cand))
                assert sorted(hits) == pairwise_intersections(fam, cand)


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_point_ids_list_the_reference_points_in_tuple_order(field):
    ids = lines4._point_ids(field)
    q = field.q
    by_id = {line_point_id(field, pt): pt for pt in itertools.product(range(q), repeat=4)}
    # product lists the tuples in ascending order.
    assert list(by_id) == list(range(q**4))
    for line in all_genlines(field):
        pids = ids(line)
        assert [by_id[pid] for pid in pids] == points_of(field, line)
        assert [by_id[pid] for pid in sorted(pids)] == sorted(points_of(field, line))


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_bitset_test_matches_the_detector_on_random_c4free_families(field):
    rng = random.Random(3 * field.q)
    verdicts = []
    for _ in range(4):
        fam = _random_c4free(field, rng, 40)
        assert has_line_c4(field, fam.lines) is None
        for cand in (random_genline(field, rng) for _ in range(25)):
            if cand not in fam.lines:
                closes = has_line_c4(field, fam.lines + [cand]) is not None
                assert blocked(fam, cand) == closes
                verdicts.append(closes)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("field", [F2, F3, F4, make_field(5)], ids=repr)
def test_has_line_c4_matches_pairwise_reference_on_moment_seeds(field):
    seed = moment_seed(field)
    assert has_line_c4(field, seed) == pairwise_line_c4(field, seed)


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_has_line_c4_matches_pairwise_reference_on_random_families(field):
    rng = random.Random(7 * field.q)
    found = 0
    for _ in range(15):
        fam = [random_genline(field, rng) for _ in range(rng.randint(4, 40))]
        w = has_line_c4(field, fam)
        assert w == pairwise_line_c4(field, fam)
        found += w is not None
    assert 0 < found < 15


@pytest.mark.parametrize("q,seed", [(q, seed) for q in (2, 3) for seed in range(5)])
def test_greedy_matches_pairwise_reference(q, seed):
    field = make_field(q)
    assert greedy_c4free(field, seed) == pairwise_greedy(field, seed)


def test_greedy_q4_matches_pinned_pairwise_family():
    # sha256 of the family file that the pairwise search (pairwise_greedy,
    # about 20 s here) writes for GF(4), seed 0: 176 lines.
    sink = io.StringIO()
    write_family(F4, greedy_c4free(F4, 0), sink)
    digest = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    assert digest == GREEDY_F4_SEED0_SHA256


def test_greedy_f2_regression():
    fam = greedy_c4free(F2, 0)
    assert len(fam) == GREEDY_F2_SEED0_SIZE
    assert len(fam) >= 8
    assert has_line_c4(F2, fam) is None
    assert greedy_c4free(F2, 0) == fam
    assert greedy_c4free(F2, 1) != fam


def test_greedy_is_maximal():
    fam = greedy_c4free(F2, 0)
    members = set(fam)
    rebuilt = C4FreeFamily(F2)
    for line in fam:
        assert rebuilt.try_add(line)
    rejected = [l for l in all_genlines(F2) if l not in members]
    for line in rejected:
        assert blocked(rebuilt, line)
    # spot-check the incremental verdict against the full detector
    rng = random.Random(5)
    for line in rng.sample(rejected, 10):
        assert has_line_c4(F2, fam + [line]) is not None


def test_try_add_refuses_every_member():
    fam = C4FreeFamily(F3)
    for line in greedy_c4free(F3, 0):
        assert fam.try_add(line)
    members = list(fam.lines)
    assert len(members) == 84
    for line in members:
        assert not fam.try_add(line)
    assert fam.lines == members


def test_greedy_lower_bound_parallel_class():
    # all q^3 lines in one direction never intersect, so any maximal
    # family must at least match that size
    fam = greedy_c4free(F2, 0)
    assert len(fam) >= F2.q**3


def test_greedy_q_cap():
    with pytest.raises(SizeLimitError):
        greedy_c4free(make_field(3, 2), 0)


def test_greedy_accepts_q_at_the_cap(monkeypatch):
    monkeypatch.setattr("girthforge.lines4.all_genlines", lambda field: [])
    assert greedy_c4free(make_field(2, 3), 0) == []


def test_family_file_round_trip():
    fam = greedy_c4free(F2, 0)
    sink = io.StringIO()
    write_family(F2, fam, sink)
    text = sink.getvalue()
    assert text.startswith(f"girthforge-lines4 p=2 m=1 n={len(fam)}\n")
    p, m, back = parse_family(text)
    assert (p, m) == (2, 1)
    assert back == fam
    with pytest.raises(ValueError):
        parse_family("not-a-family p=2 m=1 n=0\n")


@pytest.mark.parametrize(
    "head",
    [
        "girthforge-lines4 p=2 m=1",
        "girthforge-lines4 p=2 m=1 n=1 n=1",
        "girthforge-lines4 p=2 m= n=1",
    ],
    ids=["missing-n", "repeated-key", "empty-value"],
)
def test_parse_family_rejects_bad_header(head):
    with pytest.raises(ValueError):
        parse_family(head + "\ndir=1,0,0,0 base=0,0,0,0\n")


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "girthforge-lines4 p=2 m=1 n=1\r\ndir=1,0,0,0 base=0,0,0,0\r\n",
            "header 'girthforge-lines4 p=2 m=1 n=1\\r': expected 'girthforge-lines4 p=2 m=1 n=1'",
        ),
        (
            "girthforge-lines4 p=2 m=1 n=1\ndir=1,0,0,0 base=0,0,0,0\r\n",
            "line 'dir=1,0,0,0 base=0,0,0,0\\r': expected dir=<ints> base=<ints>",
        ),
        (
            "girthforge-lines4 p=2 m=1 n=1\ndir=1,0,0,0 base=0,0,0,0",
            "line 2 'dir=1,0,0,0 base=0,0,0,0' does not end in a newline",
        ),
    ],
    ids=["crlf", "crlf-in-body", "no-final-newline"],
)
def test_parse_family_reads_lf_terminated_lines_only(text, message):
    # write_family ends every line in LF; any other ending is refused.
    with pytest.raises(ValueError) as exc:
        parse_family(text)
    assert str(exc.value) == message


def test_parse_family_refuses_a_field_past_the_line_cap_before_the_modulus_scan(monkeypatch):
    def unreachable(p, m):
        raise AssertionError(f"modulus scan of GF({p}^{m})")

    monkeypatch.setattr("girthforge.gf._smallest_irreducible", unreachable)
    with pytest.raises(SizeLimitError):
        parse_family("girthforge-lines4 p=2 m=20 n=1\ndir=1,0,0,0 base=0,0,0,0\n")
    with pytest.raises(SizeLimitError):
        parse_family("girthforge-lines4 p=47 m=1 n=0\n")


def test_parse_family_accepts_the_largest_field_under_the_line_cap():
    assert parse_family("girthforge-lines4 p=43 m=1 n=0\n") == (43, 1, [])


def test_parse_family_rejects_huge_prime_without_trial_division(monkeypatch):
    def unreachable(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr("girthforge.gf.is_prime", unreachable)
    with pytest.raises(SizeLimitError):
        parse_family("girthforge-lines4 p=1000000000000000003 m=1 n=0\n")


@pytest.mark.parametrize(
    "line",
    [
        "dir=0,0,0,0 base=0,0,0,0",
        "dir=1,5,0,0 base=0,9,0,0",
        "dir=1,0,0,0 base=1,0,0,0",
        "1,0,0,0 0,0,0,0",
        "base=0,0,0,0 dir=1,0,0,0",
        "dir=1,x,0,0 base=0,0,0,0",
        "dir=1,0,0 base=0,0,0",
    ],
    ids=[
        "zero-direction",
        "outside-field",
        "non-canonical",
        "no-keys",
        "keys-swapped",
        "non-integer",
        "three-coordinates",
    ],
)
def test_parse_family_rejects_bad_line(line):
    with pytest.raises(ValueError) as exc:
        parse_family(f"girthforge-lines4 p=2 m=1 n=1\n{line}\n")
    assert str(exc.value).startswith(f"line {line!r}")


FAMILY_FIELDS = {(p, m): make_field(p, m) for p, m in ((2, 1), (3, 1), (2, 2))}
FAMILY_JUNK = [
    "1,0,0,0 0,0,0,0",
    "base=0,0,0,0 dir=1,0,0,0",
    "dir=1,x,0,0 base=0,0,0,0",
    "dir=1,0,0 base=0,0,0",
    "dir=1,0,0,0,0 base=0,0,0,0,0",
    "dir=1,0,0,0 base=0,0,0,0 base=0,0,0,0",
    "dir=1,0,0,0  base=0,0,0,0",
    "dir=1,0,0,0\tbase=0,0,0,0",
    "dir=01,0,0,0 base=0,0,0,0",
    "dir=+1,0,0,0 base=0,0,0,0",
    "dir= 1,0,0,0 base=0,0,0,0",
    "dir=1,0,0,0 base=0,0,0,",
    " dir=1,0,0,0 base=0,0,0,0",
    "dir=1,0,0,0 base=0,0,0,0 ",
    "dir=1,0,0,0 base=0,9,0,0",
]


@st.composite
def family_texts(draw):
    """Near-valid family texts over q <= 4: lines written by genline_text,
    most of them canonicalised first, then at most one junk line, one
    blank line, one character of one line replaced, one header value
    spoilt, the header keys permuted, or one header space doubled.
    """
    (p, m), field = draw(st.sampled_from(sorted(FAMILY_FIELDS.items())))
    coord = st.integers(0, field.q - 1)
    point = st.tuples(coord, coord, coord, coord)
    body = []
    for x, d in draw(st.lists(st.tuples(point, point), max_size=6)):
        line = GenLine(d, x)
        if any(d) and draw(st.integers(0, 7)):
            line = canonical_genline(field, x, d)
        body.append(genline_text(line))
    defect = draw(
        st.sampled_from(["none", "none", "junk", "blank", "char", "header", "order", "spaces"])
    )
    if defect == "junk":
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(FAMILY_JUNK)))
    elif defect == "blank":
        body.insert(draw(st.integers(0, len(body))), "")
    elif defect == "char" and body:
        i = draw(st.integers(0, len(body) - 1))
        j = draw(st.integers(0, len(body[i]) - 1))
        char = draw(st.sampled_from("0123456789,= abdirsex"))
        body[i] = body[i][:j] + char + body[i][j + 1 :]
    n = len(body) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    keys = [f"p={p}", f"m={m}", f"n={n}"]
    if defect == "order":
        keys = draw(st.permutations(keys))
    head = " ".join(["girthforge-lines4", *keys])
    if defect == "header":
        head = head.replace(draw(st.sampled_from(keys)), "q=1")
    elif defect == "spaces":
        at = draw(st.sampled_from([i for i, c in enumerate(head) if c == " "]))
        head = head[:at] + " " + head[at:]
    return "\n".join([head, *body]) + "\n"


@given(text=family_texts())
@settings(max_examples=300, deadline=None)
def test_parse_family_fuzz_round_trips_or_raises(text):
    try:
        p, m, fam = parse_family(text)
    except ValueError:
        return
    sink = io.StringIO()
    write_family(FAMILY_FIELDS[p, m], fam, sink)
    assert sink.getvalue() == text


def _family_verdict(field, line):
    """True if parse_family reads the one-line family of line back, else
    its error message."""
    text = f"girthforge-lines4 p={field.p} m={field.m} n=1\n{genline_text(line)}\n"
    try:
        return parse_family(text)[2] == [line]
    except ValueError as exc:
        return str(exc)


def _canonical_verdict(field, line):
    """The same verdict from canonical_genline: True if it maps the line
    to itself, else the message parse_family gives for the line."""
    try:
        if canonical_genline(field, line.base, line.dir) == line:
            return True
        reason = "not in canonical form"
    except ValueError as exc:
        reason = str(exc)
    return f"line {genline_text(line)!r}: {reason}"


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_parse_family_pivot_rule_agrees_with_canonical_genline(field):
    # parse_family accepts a line when its direction's pivot is 1 and its
    # base's pivot coordinate 0, with no field arithmetic. Over GF(2) and
    # GF(3) every (dir, base) pair is tried, over GF(4) a sample with its
    # canonical forms; both give the same verdict and the same message.
    q = field.q
    points = list(itertools.product(range(q), repeat=4))
    if q < 4:
        lines = [GenLine(d, x) for d in points for x in points]
    else:
        rng = random.Random(4)
        lines = [GenLine(rng.choice(points), rng.choice(points)) for _ in range(1500)]
        lines += [canonical_genline(field, x, d) for d, x in lines if any(d)]
    lines += [
        GenLine((1, 0, 0, q), (0, 0, 0, 0)),
        GenLine((1, 0, 0, 0), (0, -1, 0, 0)),
        GenLine((1, 0, 0), (0, 0, 0)),
        GenLine((0, 1, 0, 0, 0), (0, 0, 0, 0, 0)),
    ]
    accepted = 0
    for line in lines:
        verdict = _family_verdict(field, line)
        assert verdict == _canonical_verdict(field, line), line
        accepted += verdict is True
    # Each canonical line once over the small fields; the sample's
    # canonical forms over GF(4).
    assert accepted == genline_count(field) if q < 4 else accepted > 1000


def _incidence_reference(field, family):
    """The graph has_line_c4 searches, made from points_of: each point
    on two or more of the lines, by ascending id, against each line."""
    fam = sorted(set(family))
    through = defaultdict(list)
    for li, line in enumerate(fam):
        for pt in points_of(field, line):
            through[line_point_id(field, pt)].append(li)
    pts = sorted(pt for pt, lis in through.items() if len(lis) > 1)
    pairs = [(pi, li) for pi, pt in enumerate(pts) for li in through[pt]]
    return from_edges(len(pts), len(fam), pairs)


INCIDENCE_FAMILIES = [(f, "seed", None) for f in (F2, F3, F4, F5)] + [
    (f, "greedy", seed) for f in (F2, F3) for seed in range(3)
] + [(F4, "greedy", 0)]


@pytest.mark.parametrize(
    "field,kind,seed",
    INCIDENCE_FAMILIES,
    ids=[f"q{f.q}-{kind}{'' if s is None else s}" for f, kind, s in INCIDENCE_FAMILIES],
)
def test_has_line_c4_searches_the_reference_incidence_graph(field, kind, seed, monkeypatch):
    family = moment_seed(field) if kind == "seed" else greedy_c4free(field, seed)
    graphs = []

    def kept(g, length):
        graphs.append(g)
        return first_cycle(g, length)

    monkeypatch.setattr(lines4, "first_cycle", kept)
    found = has_line_c4(field, family)
    assert (found is None) == (kind == "greedy")
    (g,) = graphs
    assert validate_bigraph(g) == _incidence_reference(field, family)
    assert g.nP > 0 and not g.is_moment_graph


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_first_cycle_matches_the_enumeration_on_line_incidence_graphs(field, monkeypatch):
    graphs = []

    def kept(g, length):
        graphs.append(g)
        return first_cycle(g, length)

    monkeypatch.setattr(lines4, "first_cycle", kept)
    rng = random.Random(11 * field.q)
    for _ in range(10):
        has_line_c4(field, [random_genline(field, rng) for _ in range(rng.randint(4, 40))])
    assert len(graphs) == 10
    cyclic = 0
    for g in graphs:
        firsts = [first_cycle(g, length) for length in range(4, 13)]
        assert firsts == [next(iter_cycles(g, length), None) for length in range(4, 13)]
        cyclic += any(firsts)
    assert 0 < cyclic < 10


@pytest.mark.parametrize(
    "field,seed", [(f, seed) for f in (F2, F3) for seed in range(5)] + [(F4, 0)], ids=repr
)
def test_c4free_verdict_runs_no_cycle_dfs(field, seed, monkeypatch):
    fam = greedy_c4free(field, seed)
    roots = record_dfs_roots(monkeypatch)
    assert has_line_c4(field, fam) is None
    assert roots == []


@pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
def test_found_verdict_runs_the_cycle_dfs_once(field, monkeypatch):
    seed = moment_seed(field)
    roots = record_dfs_roots(monkeypatch)
    assert has_line_c4(field, seed) is not None
    assert len(roots) == 1 and len(roots[0]) == 1


def test_has_line_c4_matches_pairwise_reference_on_the_q4_greedy_family():
    fam = greedy_c4free(F4, 0)
    assert has_line_c4(F4, fam) is None
    assert pairwise_line_c4(F4, fam) is None
    members = set(fam)
    rejected = [l for l in all_genlines(F4) if l not in members]
    for line in random.Random(16).sample(rejected, 5):
        w = has_line_c4(F4, fam + [line])
        assert w is not None
        assert w == pairwise_line_c4(F4, fam + [line])
