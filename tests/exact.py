"""The exact reference the tests compare ``clip_exact`` with.

``exact(seg, window)`` runs the oracle's integer path alone, never its
float filter, and keeps an accept's coordinates exact, so equal clips
compare equal whatever the input types.
"""

from fractions import Fraction

from clipbench.oracle import _ExactWindow, _clip_ints


def exact(seg, window):
    """``(grazing, ends)``: ``ends`` is None on a reject, otherwise the
    clip ``(x1, y1, x2, y2)`` as four lowest-terms ``Fraction``s.  Takes
    and raises what ``clip_exact`` does."""
    x1, y1, x2, y2 = seg
    if type(window) is not _ExactWindow:
        window = _ExactWindow(window)
    grazing, ends = _clip_ints(x1, y1, x2, y2, window)
    if ends is not None:
        x1n, y1n, d1, x2n, y2n, d2 = ends
        ends = Fraction(x1n, d1), Fraction(y1n, d1), Fraction(x2n, d2), Fraction(y2n, d2)
    return grazing, ends
