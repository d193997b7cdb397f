"""Metamorphic checks: maps of GF(q)^k that must carry the moment graph
onto itself.

Each map is computed on point coordinates with field operations and
checked line by line: the image of every line's point set must be the
point set of a line of the graph, with the direction the algebra
predicts. Translations keep the direction z, the dilation
x_i -> lam^i * x_i sends z to lam * z, and Frobenius x_i -> x_i^p sends
z to z^p, and the shear S_c, x_i -> sum over j <= i of
C(i, j) * c^(i-j) * x_j, sends z to z + c. The searches start from P
vertex 0 alone, and the cycle counts from the one edge (P vertex 0, L0),
on the graphs ``build`` marks as the moment graph
(``BiGraph.is_moment_graph``); the translations and shears checked here,
with field operations and without build's id tables, are what makes
that sound.
"""

from functools import lru_cache
from math import comb

import pytest

from girthforge.gf import make_field
from girthforge.graph import build, point_id
from helpers import field_pow, id_line, id_point

FIELDS = {3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3)}
CASES = [(q, k) for q in FIELDS for k in (2, 3, 4)]


@lru_cache(maxsize=None)
def _graph(q, k):
    return build(make_field(*FIELDS[q]), k)


def _primitive(field):
    """A generator of the multiplicative group, so one dilation stands for all."""
    for lam in range(field.q):
        powers = {field_pow(field, lam, e) for e in range(1, field.q)}
        if len(powers) == field.q - 1 and 0 not in powers:
            return lam
    raise AssertionError(f"{field} has no primitive element")


def _line_images(field, k, g, phi):
    """The line each line is mapped onto by the point map phi."""
    pids = [point_id(field, phi(id_point(field, k, v))) for v in range(g.nP)]
    assert sorted(pids) == list(range(g.nP)), "not a bijection of the points"
    line_of = {tuple(row): lid for lid, row in enumerate(g.adjL)}
    assert len(line_of) == g.nL
    images = []
    for row in g.adjL:
        image = tuple(sorted(pids[v] for v in row))
        assert image in line_of, f"{row} maps onto {image}, which is no line"
        images.append(line_of[image])
    assert sorted(images) == list(range(g.nL))
    return images


def _check_directions(field, k, images, expect):
    for lid, image in enumerate(images):
        z = id_line(field, k, lid).z
        assert id_line(field, k, image).z == expect(z), (lid, image)


@pytest.mark.parametrize("q,k", CASES)
def test_translations_are_automorphisms(q, k):
    field, g = make_field(*FIELDS[q]), _graph(q, k)
    for t in ((1,) + (0,) * (k - 1), tuple((i + 1) % q for i in range(k)), (q - 1,) * k):
        images = _line_images(
            field, k, g, lambda x: tuple(field.add(a, b) for a, b in zip(x, t))
        )
        _check_directions(field, k, images, lambda z: z)


@pytest.mark.parametrize("q,k", CASES)
def test_dilation_is_an_automorphism(q, k):
    field, g = make_field(*FIELDS[q]), _graph(q, k)
    lam = _primitive(field)
    scale = [field_pow(field, lam, i) for i in range(k)]
    images = _line_images(
        field, k, g, lambda x: tuple(field.mul(s, a) for s, a in zip(scale, x))
    )
    _check_directions(field, k, images, lambda z: field.mul(lam, z))


@pytest.mark.parametrize("q,k", CASES)
def test_frobenius_is_an_automorphism(q, k):
    field, g = make_field(*FIELDS[q]), _graph(q, k)
    images = _line_images(field, k, g, lambda x: tuple(field_pow(field, a, field.p) for a in x))
    _check_directions(field, k, images, lambda z: field_pow(field, z, field.p))


@pytest.mark.parametrize("q,k", CASES)
def test_shear_is_an_automorphism(q, k):
    # (z + c)^i = sum over j <= i of C(i, j) * c^(i-j) * z^j in any
    # commutative ring, so S_c maps the direction of z to that of z + c.
    # An integer below p is the field element of the same id.
    field, g = make_field(*FIELDS[q]), _graph(q, k)
    coeff = [[comb(i, j) % field.p for j in range(i + 1)] for i in range(k)]
    for c in range(field.q):
        cpow = [field_pow(field, c, e) for e in range(k)]

        def shear(x):
            out = []
            for i in range(k):
                s = 0
                for j in range(i + 1):
                    term = field.mul(coeff[i][j], field.mul(cpow[i - j], x[j]))
                    s = field.add(s, term)
                out.append(s)
            return tuple(out)

        images = _line_images(field, k, g, shear)
        _check_directions(field, k, images, lambda z: field.add(z, c))


def test_the_oracle_rejects_a_coordinate_swap():
    # (1, z, z^2) swapped to (z, 1, z^2) is no moment direction for z = 0.
    field, g = make_field(3), _graph(3, 3)
    with pytest.raises(AssertionError, match="no line"):
        _line_images(field, 3, g, lambda x: (x[1], x[0], x[2]))
