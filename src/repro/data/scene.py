"""Scene layout generation.

A scene is a ``(rows, cols)`` map of material labels plus per-pixel abundance
variation.  The layouts generated here mimic the paper's HYDICE collections:
a foliated background (forest with grass clearings), a road cutting through,
and a handful of mechanised vehicles, some sitting in the open and some under
camouflage netting.  The ground-truth vehicle mask is kept so the evaluation
can measure how strongly the fused composite enhances the targets
(Figure 3's "camouflaged vehicle ... significantly enhanced against its
background").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Canonical material ordering used for label encoding.
DEFAULT_MATERIALS: Tuple[str, ...] = (
    "forest", "grass", "soil", "road", "vehicle", "camouflage", "shadow",
)


class ScenePlacementError(ValueError):
    """A requested vehicle target cannot be placed in the scene.

    Raised when every candidate window for a vehicle footprint is already
    occupied (road, previously placed targets).  Only reachable on very
    small or very crowded scenes; the caller should either shrink the
    target count or grow the scene.  Historically the generator silently
    stamped an *overlapping* placement in this situation, and scenes under
    ~32px crashed outright in the quadrant-constrained draw -- both fixed
    by the typed error plus the quadrant fallback in ``_place``.
    """


@dataclass(frozen=True)
class VehiclePlacement:
    """Location and size (in pixels) of one target vehicle."""

    row: int
    col: int
    height: int = 4
    width: int = 7
    camouflaged: bool = False


@dataclass
class SceneLayout:
    """Material label map plus target ground truth.

    Attributes
    ----------
    labels:
        ``(rows, cols)`` integer map indexing into :attr:`materials`.
    materials:
        Material name per label value.
    abundance:
        ``(rows, cols)`` multiplicative brightness variation (canopy texture,
        illumination), centred on 1.0.
    vehicles:
        The placements used, for ground truth.
    """

    labels: np.ndarray
    materials: Tuple[str, ...]
    abundance: np.ndarray
    vehicles: List[VehiclePlacement] = field(default_factory=list)

    def material_index(self, name: str) -> int:
        try:
            return self.materials.index(name)
        except ValueError:
            raise KeyError(f"material {name!r} not present in scene") from None

    def mask(self, name: str) -> np.ndarray:
        """Boolean mask of pixels labelled with ``name``."""
        return self.labels == self.material_index(name)

    def target_mask(self) -> np.ndarray:
        """Pixels belonging to any vehicle (camouflaged ones included).

        Camouflaged vehicles are labelled ``"camouflage"`` in the label map,
        so the mask is reconstructed from the placements rather than labels.
        """
        mask = np.zeros_like(self.labels, dtype=bool)
        for vehicle in self.vehicles:
            r0, c0 = vehicle.row, vehicle.col
            mask[r0:r0 + vehicle.height, c0:c0 + vehicle.width] = True
        return mask

    def fractions(self) -> Dict[str, float]:
        """Fraction of scene pixels per material (sanity checks, reports)."""
        total = self.labels.size
        return {name: float(np.count_nonzero(self.labels == i)) / total
                for i, name in enumerate(self.materials)}


def target_capacity(rows: int, cols: int) -> int:
    """Vehicles a ``rows x cols`` scene reliably hosts (conservative bound).

    Placement draws footprints up to 5x8 with a 1px margin and must avoid
    the road and other targets, so very small scenes saturate quickly: a
    16x16 scene fits exactly one target, a 24x24 scene three.  Callers
    sizing random workloads (the parity fuzzer, the scenario library)
    should stay within this bound; :func:`generate_scene` itself raises
    :class:`ScenePlacementError` when a scene genuinely cannot host the
    targets asked of it.
    """
    return max(1, ((rows - 2) * (cols - 2)) // 160)


def _smooth_field(rng: np.random.Generator, rows: int, cols: int, scale: int) -> np.ndarray:
    """Cheap smooth random field via block noise + separable box blur."""
    coarse = rng.standard_normal((max(rows // scale, 1) + 2, max(cols // scale, 1) + 2))
    field_rows = np.repeat(coarse, scale, axis=0)[:rows + scale]
    field_full = np.repeat(field_rows, scale, axis=1)[:, :cols + scale]
    kernel = np.ones(scale, dtype=float) / scale
    blurred = np.apply_along_axis(lambda m: np.convolve(m, kernel, mode="same"), 0, field_full)
    blurred = np.apply_along_axis(lambda m: np.convolve(m, kernel, mode="same"), 1, blurred)
    return blurred[:rows, :cols]


def generate_scene(rows: int = 320, cols: int = 320, *, seed: int = 0,
                   vehicles: int = 3, camouflaged_vehicles: int = 1,
                   materials: Sequence[str] = DEFAULT_MATERIALS,
                   road: bool = True, clutter_fraction: float = 0.10) -> SceneLayout:
    """Generate a foliated scene with embedded vehicle targets.

    Parameters
    ----------
    rows, cols:
        Spatial size of the scene.
    seed:
        Seed of the deterministic layout.
    vehicles:
        Number of vehicles parked in the open.
    camouflaged_vehicles:
        Number of additional vehicles hidden under camouflage netting (one of
        them is placed in the lower-left quadrant, as in Figure 3).
    materials:
        Materials available for labelling; must contain at least
        ``forest``, ``grass``, ``vehicle`` and ``camouflage``.
    road:
        Whether to draw a road strip across the scene.
    clutter_fraction:
        Fraction of pixels re-labelled with a random *background* material
        (isolated bushes, bare patches, litter).  Real foliated scenes are
        heterogeneous at the pixel scale; the clutter also guarantees that
        every sub-cube of a distributed decomposition sees the full
        background material diversity, so the screening workload per pixel is
        nearly independent of the decomposition granularity.
    """
    if not 0.0 <= clutter_fraction < 1.0:
        raise ValueError("clutter_fraction must be in [0, 1)")
    if rows < 16 or cols < 16:
        raise ValueError("scene must be at least 16x16 pixels")
    materials = tuple(materials)
    for required in ("forest", "grass", "vehicle", "camouflage"):
        if required not in materials:
            raise ValueError(f"materials must include {required!r}")
    rng = np.random.default_rng(seed)

    labels = np.full((rows, cols), materials.index("forest"), dtype=np.int16)

    # Grass clearings: threshold a smooth random field.
    clearing_field = _smooth_field(rng, rows, cols, scale=max(8, rows // 10))
    labels[clearing_field > 0.6] = materials.index("grass")
    if "soil" in materials:
        labels[clearing_field > 1.1] = materials.index("soil")

    # Shadowed canopy along one edge of the clearings.
    if "shadow" in materials:
        shadow_field = np.roll(clearing_field, shift=3, axis=0)
        labels[(shadow_field > 0.6) & (clearing_field <= 0.6)] = materials.index("shadow")

    # Road: a gently sloping strip.
    if road and "road" in materials:
        col_positions = (np.linspace(0, cols - 1, rows)
                         + 8.0 * np.sin(np.linspace(0, 3.0, rows))).astype(int)
        half_width = max(1, cols // 80)
        for r in range(rows):
            c = int(np.clip(col_positions[r], 0, cols - 1))
            labels[r, max(0, c - half_width):min(cols, c + half_width + 1)] = \
                materials.index("road")

    # Pixel-scale background clutter (applied before the vehicles so targets
    # are never overwritten).
    if clutter_fraction > 0:
        background = [m for m in ("forest", "grass", "soil", "shadow") if m in materials]
        n_clutter = int(round(clutter_fraction * rows * cols))
        if n_clutter and background:
            flat = rng.choice(rows * cols, size=n_clutter, replace=False)
            choices = rng.integers(0, len(background), size=n_clutter)
            clutter_labels = np.array([materials.index(m) for m in background],
                                      dtype=labels.dtype)
            labels.reshape(-1)[flat] = clutter_labels[choices]

    placements: List[VehiclePlacement] = []

    def _window_free(r: int, c: int, height: int, width: int) -> bool:
        window = labels[r:r + height, c:c + width]
        # Avoid stacking vehicles on the road or on each other.
        if "road" in materials and np.any(window == materials.index("road")):
            return False
        return not (np.any(window == materials.index("vehicle"))
                    or np.any(window == materials.index("camouflage")))

    def _place(camouflaged: bool, forced_quadrant: Optional[str] = None) -> None:
        height = int(rng.integers(3, 6))
        width = int(rng.integers(5, 9))
        # The lower-left quadrant constraint (Figure 3) only holds when the
        # quadrant can actually contain the footprint; on smaller scenes the
        # draw falls back to the whole scene.  Scenes >= 32px always satisfy
        # the constraint, so their RNG consumption is unchanged.
        quadrant = forced_quadrant
        if quadrant == "lower_left" and (rows - height - 1 <= rows // 2
                                         or cols // 2 - width <= 1):
            quadrant = None
        found = False
        for _ in range(64):
            if quadrant == "lower_left":
                r = int(rng.integers(rows // 2, rows - height - 1))
                c = int(rng.integers(1, cols // 2 - width))
            else:
                r = int(rng.integers(1, rows - height - 1))
                c = int(rng.integers(1, cols - width - 1))
            if _window_free(r, c, height, width):
                found = True
                break
        if not found:
            # Random probing exhausted: fall back to a deterministic scan of
            # the same candidate range (no RNG consumed) so crowded-but-
            # placeable scenes still place, and genuinely full scenes raise
            # a typed error instead of silently stamping an overlap.
            if quadrant == "lower_left":
                row_range = range(rows // 2, rows - height - 1)
                col_range = range(1, cols // 2 - width)
            else:
                row_range = range(1, rows - height - 1)
                col_range = range(1, cols - width - 1)
            for r in row_range:
                for c in col_range:
                    if _window_free(r, c, height, width):
                        found = True
                        break
                if found:
                    break
            if not found:
                raise ScenePlacementError(
                    f"cannot place a {height}x{width} vehicle in the "
                    f"{rows}x{cols} scene: every candidate window is occupied "
                    f"by the road or existing targets; use a larger scene or "
                    f"fewer vehicles")
        label = materials.index("camouflage") if camouflaged else materials.index("vehicle")
        labels[r:r + height, c:c + width] = label
        placements.append(VehiclePlacement(row=r, col=c, height=height, width=width,
                                           camouflaged=camouflaged))

    for index in range(camouflaged_vehicles):
        _place(True, forced_quadrant="lower_left" if index == 0 else None)
    for _ in range(vehicles):
        _place(False)

    abundance = 1.0 + 0.08 * _smooth_field(rng, rows, cols, scale=max(4, rows // 32))
    abundance += 0.02 * rng.standard_normal((rows, cols))
    abundance = np.clip(abundance, 0.6, 1.4)

    return SceneLayout(labels=labels, materials=materials,
                       abundance=abundance.astype(np.float32), vehicles=placements)


__all__ = ["SceneLayout", "ScenePlacementError", "VehiclePlacement",
           "generate_scene", "target_capacity", "DEFAULT_MATERIALS"]
