"""How the exact stability verdict is reached, step by step.

Walks the quartic counterexample x^4 - 2x^2 - 8x (which defeats a
plausible cone-closure argument) through rotation, gcd splitting and
sign-variation counting, then contrasts it with a stable sibling.
Run as: python3 demos/02_stability_certificates.py
"""

from turanstab import Poly, fisk_expression, gcd, is_weakly_hurwitz, rotate


def inspect(label: str, f: Poly) -> None:
    print(f"-- {label}: f = {f.pretty()}")
    re, im = rotate(f)
    print(f"   rotated g = (-i)^n f(ix):  re = {re.pretty()}")
    print(f"                              im = {im.pretty()}")
    print(f"   gcd(re, im) = {gcd(re, im).pretty()}  (carries the axis zeros of f)")
    cert = is_weakly_hurwitz(f)
    print(f"   open-upper-half-plane count of the quotient: {cert.p_upper}")
    print(f"   verdict: {'weakly Hurwitz stable' if cert.verdict else 'UNSTABLE'}")
    print(f"   certificate: {cert.summary()}\n")


def main() -> None:
    f = Poly([0, 2, 1])  # x(x+2): real-rooted, zeros in (-inf, 0]
    print(f"source f = {f.pretty()}, combined as a f^2 + b f f' + c x (f f'' - f'^2)\n")
    inspect("a=1, b=1, c=3 (the counterexample)", fisk_expression(f, 1, 1, 3))
    inspect("a=1, b=1, c=-3 (sign of c flipped)", fisk_expression(f, 1, 1, -3))
    print("Stability of each summand does not survive the c > 0 combination:")
    print("a single sign choice moves two zeros across the imaginary axis,")
    print("and the certificate pinpoints exactly where the count breaks.")


if __name__ == "__main__":
    main()
