"""Truncated Magnus expansion over the free group on meridian generators.

Series live in Z<<X_1..X_n>> truncated at a fixed total degree; words are
tuples of generator indices, coefficients are exact Python integers.  The
substitution g_i -> 1 + X_i, g_i^-1 -> 1 - X_i + X_i^2 - ... realizes the
free-group embedding whose longitude coefficients are the Milnor numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class MagnusSeries:
    truncation: int
    coeffs: dict = field(default_factory=dict)  # word tuple -> int

    @classmethod
    def unit(cls, truncation: int) -> "MagnusSeries":
        return cls(truncation, {(): 1})

    @classmethod
    def generator(cls, index: int, truncation: int, inverse=False) -> "MagnusSeries":
        """1 + X_i, or the truncated geometric series for the inverse."""
        if not inverse:
            return cls(truncation, {(): 1, (index,): 1})
        coeffs = {(): 1}
        sign = -1
        for p in range(1, truncation + 1):
            coeffs[(index,) * p] = sign
            sign = -sign
        return cls(truncation, coeffs)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        if self.truncation != other.truncation:
            raise ValueError("mismatched truncation degrees")
        out: dict = {}
        for wa, ca in self.coeffs.items():
            if ca == 0:
                continue
            room = self.truncation - len(wa)
            for wb, cb in other.coeffs.items():
                if len(wb) > room or cb == 0:
                    continue
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
        return MagnusSeries(self.truncation, out)

    def coefficient(self, word) -> int:
        return self.coeffs.get(tuple(word), 0)

    def is_unit(self) -> bool:
        return all(c == 0 for w, c in self.coeffs.items() if w != ())


def word_series(letters, truncation: int) -> MagnusSeries:
    """Magnus expansion of a word given as signed generator indices
    (+i for g_i, -i for its inverse; indices are 1-based)."""
    out = MagnusSeries.unit(truncation)
    for letter in letters:
        out = out * MagnusSeries.generator(
            abs(letter), truncation, inverse=letter < 0
        )
    return out
