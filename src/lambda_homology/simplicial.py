"""Truncated finite pointed simplicial sets.

Simplices at each level are numbered 0..size-1 with the basepoint simplex
always numbered 0.  Face maps are total functions recorded as image lists;
degeneracy maps are optional and carried along for round-tripping, but
nothing downstream consumes them.

``fibers(n, i)`` groups the simplices of level n by their image under d_i,
as a plain dict from each target simplex that is hit to its fiber.
Multi-element fibers are where face-variant choices live, so each fiber is
an ordered tuple with a stable base order.
"""

from __future__ import annotations

from .errors import ValidationError, spec_ints, spec_of

__all__ = [
    "PointedSimplicialSet",
    "circle",
    "sphere2",
    "simplicial_from_json",
    "simplicial_to_json",
]


class PointedSimplicialSet:
    """A finite pointed simplicial set truncated at ``max_level``.

    ``sizes[n]`` is the number of n-simplices; ``faces[n][i][x]`` is the
    image of simplex x under d_i (defined for 1 <= n <= max_level,
    0 <= i <= n).  ``degeneracies`` mirrors that layout one level up and may
    be empty.
    """

    __slots__ = ("max_level", "sizes", "faces", "degeneracies", "label")

    def __init__(self, max_level: int, sizes: tuple, faces: tuple,
                 degeneracies: tuple = (), label: str = ""):
        self.max_level = max_level
        self.sizes = sizes
        self.faces = faces
        self.degeneracies = degeneracies
        self.label = label

    def size(self, n: int) -> int:
        if not (0 <= n <= self.max_level):
            raise ValidationError("level out of range", level=n, max_level=self.max_level)
        return self.sizes[n]

    def face(self, n: int, i: int, x: int) -> int:
        return self.faces[n - 1][i][x]

    def face_images(self, n: int, i: int) -> tuple[int, ...]:
        if not (1 <= n <= self.max_level and 0 <= i <= n):
            raise ValidationError("face index out of range", level=n, index=i)
        return self.faces[n - 1][i]

    def fibers(self, n: int, i: int) -> dict[int, tuple[int, ...]]:
        """The fibers of d_i: X_n -> X_{n-1}, by target simplex.

        Each target simplex that is hit maps to the tuple of its preimages
        in base order: ascending simplex id, except that the basepoint of
        X_n is listed last within its fiber when i == n.  That exception
        makes the identity ordering of a basepoint fiber match the
        convention where the wrap-around face multiplies onto the module
        from the right.
        """
        images = self.face_images(n, i)
        classes: dict[int, list[int]] = {}
        for x, t in enumerate(images):
            classes.setdefault(t, []).append(x)
        out: dict[int, tuple[int, ...]] = {}
        for t, xs in classes.items():
            if i == n and xs[0] == 0 and len(xs) > 1:
                xs = xs[1:] + [0]
            out[t] = tuple(xs)
        return out

    def validate(self) -> list[dict]:
        """All violations: shape, range, pointedness, simplicial identities."""
        bad = []
        if self.max_level < 0:
            bad.append({"kind": "shape", "detail": "negative max_level"})
            return bad
        if len(self.sizes) != self.max_level + 1:
            bad.append({"kind": "shape", "detail": "sizes length"})
            return bad
        if any(s < 1 for s in self.sizes):
            bad.append({"kind": "pointed", "detail": "a level is empty"})
            return bad
        if len(self.faces) != self.max_level:
            bad.append({"kind": "shape", "detail": "faces length"})
            return bad
        for n in range(1, self.max_level + 1):
            level = self.faces[n - 1]
            if len(level) != n + 1:
                bad.append({"kind": "shape", "level": n, "detail": "face count"})
                continue
            for i, images in enumerate(level):
                if len(images) != self.sizes[n]:
                    bad.append({"kind": "shape", "level": n, "index": i,
                                "detail": "image list length"})
                    continue
                for x, t in enumerate(images):
                    if not (0 <= t < self.sizes[n - 1]):
                        bad.append({"kind": "range", "level": n, "index": i,
                                    "simplex": x, "image": t})
                if images[0] != 0:
                    bad.append({"kind": "pointed", "level": n, "index": i,
                                "image_of_basepoint": images[0]})
        if any(b["kind"] in ("shape", "range") for b in bad):
            # the identities below index the face tables by these shapes
            return bad
        # d_i d_j = d_{j-1} d_i for i < j, as maps X_n -> X_{n-2}
        for n in range(2, self.max_level + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    for x in range(self.sizes[n]):
                        lhs = self.face(n - 1, i, self.face(n, j, x))
                        rhs = self.face(n - 1, j - 1, self.face(n, i, x))
                        if lhs != rhs:
                            bad.append({"kind": "identity", "level": n,
                                        "indices": [i, j], "simplex": x,
                                        "lhs": lhs, "rhs": rhs})
        if self.degeneracies:
            if len(self.degeneracies) > self.max_level:
                bad.append({"kind": "shape", "detail": "degeneracies length"})
            for n in range(min(len(self.degeneracies), self.max_level)):
                level = self.degeneracies[n]
                if len(level) != n + 1:
                    bad.append({"kind": "shape", "level": n,
                                "detail": "degeneracy count"})
                    continue
                for i, images in enumerate(level):
                    if len(images) != self.sizes[n]:
                        bad.append({"kind": "shape", "level": n, "index": i,
                                    "detail": "degeneracy image length"})
                        continue
                    for x, t in enumerate(images):
                        if not (0 <= t < self.sizes[n + 1]):
                            bad.append({"kind": "range", "level": n, "index": i,
                                        "simplex": x, "image": t,
                                        "detail": "degeneracy"})
        return bad

    def truncate(self, max_level: int) -> "PointedSimplicialSet":
        if not (0 <= max_level <= self.max_level):
            raise ValidationError("cannot truncate upward", requested=max_level,
                                  max_level=self.max_level)
        return PointedSimplicialSet(
            max_level=max_level,
            sizes=self.sizes[: max_level + 1],
            faces=self.faces[:max_level],
            degeneracies=self.degeneracies[:max_level],
            label=self.label,
        )

    def __repr__(self):
        tag = self.label or "simplicial"
        return f"PointedSimplicialSet({tag}, sizes={list(self.sizes)})"


def circle(max_level: int) -> PointedSimplicialSet:
    """The minimal circle: one basepoint and one nondegenerate 1-simplex.

    Level n has the basepoint (id 0) plus the degeneracy classes of the
    1-simplex, written I(a, b) with a + b + 1 = n and id a + 1.  Faces:

    * d_i of the basepoint is the basepoint;
    * d_0 of I(0, b) is the basepoint, d_i of I(a, b) with i <= a and a > 0
      drops into I(a-1, b);
    * d_n of I(a, 0) is the basepoint, d_i of I(a, b) with i > a and b > 0
      drops into I(a, b-1).

    Degeneracy maps are filled in so emitted JSON round-trips a complete
    truncation: s_i of I(a, b) is I(a+1, b) for i <= a, else I(a, b+1).
    """
    if max_level < 1:
        raise ValidationError("circle needs max_level >= 1", max_level=max_level)
    sizes = tuple(1 + n for n in range(max_level + 1))
    faces = []
    for n in range(1, max_level + 1):
        level = []
        for i in range(n + 1):
            images = [0]
            for a in range(n):
                b = n - 1 - a
                if i <= a:
                    images.append(0 if a == 0 else a)  # I(a-1, b) has id a
                else:
                    images.append(0 if b == 0 else a + 1)  # I(a, b-1) has id a+1
            level.append(tuple(images))
        faces.append(tuple(level))
    degeneracies = []
    for n in range(max_level):
        level = []
        for i in range(n + 1):
            images = [0]
            for a in range(n):
                images.append(a + 2 if i <= a else a + 1)
            level.append(tuple(images))
        degeneracies.append(tuple(level))
    return PointedSimplicialSet(
        max_level=max_level,
        sizes=sizes,
        faces=tuple(faces),
        degeneracies=tuple(degeneracies),
        label=f"circle({max_level})",
    )


def sphere2(max_level: int) -> PointedSimplicialSet:
    """The two-sphere Delta^2/dDelta^2, pointed at the collapsed boundary.

    An n-simplex of Delta^2 is a sequence 0...0 1...1 2...2 of length n + 1.
    One that uses all three values is written (p, q), the positions of its
    first 1 and its first 2, and numbered from 1 in row-major order; every
    other one lies in the boundary and is the basepoint.  d_i deletes entry
    i, and a sequence that loses a value goes to the basepoint.
    """
    def simplices(n):
        return [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]

    faces = []
    for n in range(1, max_level + 1):
        ids = {s: k for k, s in enumerate(simplices(n - 1), start=1)}
        faces.append(tuple(
            tuple([0] + [
                0 if (i == 0 and p == 1) or (i == p == q - 1) or (i == n == q)
                else ids[(p - (i < p), q - (i < q))]
                for p, q in simplices(n)
            ])
            for i in range(n + 1)))
    return PointedSimplicialSet(
        max_level=max_level,
        sizes=tuple(1 + n * (n - 1) // 2 for n in range(max_level + 1)),
        faces=tuple(faces),
        label=f"sphere2({max_level})",
    )


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------
#
# {"max_level": N, "sizes": [s0, ..., sN],
#  "faces": {"1": [[...d_0 images...], ..., [...d_1 images...]], ...},
#  "degeneracies": {"0": [[...]], ...}}   (optional)
#
# or {"builtin": "circle", "max_level": N}.  The basepoint at every level is
# simplex 0.


def _image_lists(level, what: str) -> tuple:
    """One level of face or degeneracy maps: a list of image lists of ints."""
    return tuple(tuple(spec_ints(t, what) for t in spec_of(images, what))
                 for images in spec_of(level, what))


def simplicial_from_json(obj: dict) -> PointedSimplicialSet:
    if "builtin" in spec_of(obj, "simplicial spec", dict):
        if obj["builtin"] != "circle":
            raise ValidationError(f"unknown builtin simplicial set {obj['builtin']!r}")
        if "max_level" not in obj:
            raise ValidationError("circle spec needs 'max_level' or --max-degree")
        return circle(spec_ints(obj["max_level"], "max_level"))
    if "max_level" not in obj or "sizes" not in obj:
        raise ValidationError("simplicial spec needs 'max_level' and 'sizes'")
    max_level = spec_ints(obj["max_level"], "max_level")
    sizes = tuple(spec_ints(s, "sizes entry") for s in spec_of(obj["sizes"], "sizes"))
    faces_obj = spec_of(obj.get("faces", {}), "faces", dict)
    faces = []
    for n in range(1, max_level + 1):
        key = str(n)
        if key not in faces_obj:
            raise ValidationError("missing face maps for a level", level=n)
        faces.append(_image_lists(faces_obj[key], "faces"))
    degeneracies = []
    deg_obj = obj.get("degeneracies")
    if deg_obj:
        spec_of(deg_obj, "degeneracies", dict)
        for n in range(max_level):
            key = str(n)
            if key not in deg_obj:
                break
            degeneracies.append(_image_lists(deg_obj[key], "degeneracies"))
    x = PointedSimplicialSet(
        max_level=max_level,
        sizes=sizes,
        faces=tuple(faces),
        degeneracies=tuple(degeneracies),
        label=obj.get("label", ""),
    )
    bad = x.validate()
    if bad:
        raise ValidationError("simplicial set axioms fail", violations=bad[:5])
    return x


def simplicial_to_json(x: PointedSimplicialSet) -> dict:
    out = {
        "max_level": x.max_level,
        "sizes": list(x.sizes),
        "faces": {
            str(n): [list(images) for images in x.faces[n - 1]]
            for n in range(1, x.max_level + 1)
        },
    }
    if x.degeneracies:
        out["degeneracies"] = {
            str(n): [list(images) for images in x.degeneracies[n]]
            for n in range(len(x.degeneracies))
        }
    if x.label:
        out["label"] = x.label
    return out
