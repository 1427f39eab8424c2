"""The d = 1, d0 = 1 desk model shared by the oracle and acceptance tests:
N = w y + (eps/2)(lam u^2 + lamt v^2) with P = 0, and the oracle operator
of N plus the coupling g eps cos x, as the CLI assembles it."""
import numpy as np

from resonorm.kam import NormalFormState
from resonorm.oracle import build_operator
from resonorm.series import FourierTaylorSeries, PhaseGeometry


def desk_model(h, Nt, Nh=24, eps=0.01, lam=1.0, lamt=1.0, w=1.0,
               coupling=0.1):
    """(state, operator) of the desk model."""
    geo = PhaseGeometry(d=1, d0=1)
    st = NormalFormState.initial(geo, [w], np.diag([lam, lamt]), eps,
                                 FourierTaylorSeries.zero(geo))
    symbol = st.integrable_series() + FourierTaylorSeries.from_terms(
        geo, [(((k,), (0,), (0, 0)), coupling * eps / 2.0) for k in (1, -1)])
    return st, build_operator(symbol, h, Nt, Nh)
