"""Hypothesis strategies shared by the test modules: representations of any signature."""

from hypothesis import strategies as st

from sga.representation import METRIC_CHOICES, ODD_MODES, RepConfig, Signature


def valid_choices(n):
    """Every valid (metric, odd_mode) pair for total dimension n."""
    out = []
    for odd_mode in ODD_MODES:
        for metric in METRIC_CHOICES:
            try:
                RepConfig(Signature(n), metric=metric, odd_mode=odd_mode)
            except ValueError:
                continue
            out.append((metric, odd_mode))
    return out


@st.composite
def rep_configs(draw, max_n=17, odd_mode=None):
    """Any signature of N <= max_n; with `odd_mode` given, an odd N in that mode."""
    if odd_mode is None:
        n = draw(st.integers(min_value=1, max_value=max_n))
    else:
        n = 2 * draw(st.integers(min_value=0, max_value=(max_n - 1) // 2)) + 1
    axes = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True, max_size=n))
    choices = [c for c in valid_choices(n) if odd_mode in (None, c[1])]
    metric, odd_mode = draw(st.sampled_from(choices))
    return RepConfig(
        Signature(n - len(axes), len(axes), tuple(axes)),
        metric=metric,
        odd_mode=odd_mode,
        gamma_phase_sign=draw(st.sampled_from((1, -1))),
        timelike_pseudoscalar_phase=draw(st.booleans()),
    )
