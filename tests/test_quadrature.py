import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import sdet
from sdet.quadrature import gauss_legendre_rule


# (order, precision) pairs the quadrature builds: _gl_order(bits) at bits + GUARD
# for bits = 128 and bits = 256
@pytest.mark.parametrize("order, prec", [(48, 160), (85, 288)])
def test_gauss_legendre_rule(order, prec):
    nodes, weights = gauss_legendre_rule(order, prec)
    assert len(nodes) == len(weights) == order
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    assert all(w == v for w, v in zip(weights, reversed(weights)))
    with mp.workprec(prec + 40):
        assert all(x == -y for x, y in zip(nodes, reversed(nodes)))
        tol = mp.mpf(2) ** (-(prec - 8))
        assert abs(mp.fsum(weights) - 2) < tol
        # exact for every polynomial of degree <= 2 order - 1
        for k in range(order):
            got = mp.fsum(w * x ** (2 * k) for x, w in zip(nodes, weights))
            assert abs(got - mp.mpf(2) / (2 * k + 1)) < tol


def test_import_leaves_numpy_out():
    src = str(Path(sdet.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, %r); import sdet; print('numpy' in sys.modules)" % src
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
