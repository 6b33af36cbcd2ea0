"""DirectX-style command streams.

The paper's methodology is "trace the DirectX calls generated while
rendering each frame and replay this trace through a detailed
simulator".  This module is the analogous layer for the synthetic
workloads: a frame is *captured* once as a flat list of commands —
render-target binds, pipeline-state changes, draws, and a final present
— that can be serialized, inspected, and *replayed* against any memory
hierarchy (see :mod:`repro.workloads.replay`).

Replaying a captured command list is deterministic and independent of
the cache configuration, which is what makes render-cache ablations
meaningful: the same "API calls", different memory systems.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import WorkloadError
from repro.workloads.passes import DrawCall, RenderPass, TextureBinding
from repro.workloads.surfaces import PAGE_BYTES, MipmappedTexture, Surface


@dataclasses.dataclass(frozen=True)
class SetTargets:
    """Bind the output surfaces (OMSetRenderTargets analogue)."""

    color: str
    depth: Optional[str] = None
    hiz: Optional[str] = None
    stencil: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class SetPipelineState:
    """Per-pass rasterizer/depth state."""

    early_z_reject: float = 0.0
    depth_pass_rate: float = 0.6


@dataclasses.dataclass(frozen=True)
class BindTexture:
    """Bind one sampler slot (PSSetShaderResources analogue)."""

    slot: int
    surface: str                 #: surface or texture name
    samples_per_tile: float = 1.0
    lod: int = 0
    screen_mapped: bool = False
    full_read: bool = False
    hot_probability: float = 0.5
    hot_fraction: float = 0.15


@dataclasses.dataclass(frozen=True)
class Draw:
    """One draw call over a tile region of the bound color target."""

    region: Tuple[int, int, int, int]
    coverage: float = 1.0
    blend: bool = False
    depth_test: bool = True
    depth_write: bool = True
    stencil_test: bool = False
    vertex_blocks: int = 0
    vertex_phase: int = 0
    uv_phase: int = 0


@dataclasses.dataclass(frozen=True)
class Present:
    """Resolve the bound color target into the displayable surface."""

    display: str


Command = Union[SetTargets, SetPipelineState, BindTexture, Draw, Present]

_COMMAND_TYPES: Dict[str, type] = {
    "set_targets": SetTargets,
    "set_state": SetPipelineState,
    "bind_texture": BindTexture,
    "draw": Draw,
    "present": Present,
}
_TYPE_NAMES = {cls: name for name, cls in _COMMAND_TYPES.items()}


@dataclasses.dataclass(frozen=True)
class SurfaceDecl:
    """Declaration of a surface in a command list's resource table."""

    name: str
    base: int
    width_px: int
    height_px: int
    tile_px: int = 4
    #: MIP levels (bases descend from ``base``); 1 = plain surface.
    levels: int = 1

    def to_surface(self) -> Surface:
        return Surface(self.name, self.base, self.width_px, self.height_px,
                       self.tile_px)


@dataclasses.dataclass
class CommandList:
    """A captured frame: resource table + ordered commands."""

    surfaces: List[SurfaceDecl] = dataclasses.field(default_factory=list)
    commands: List[Command] = dataclasses.field(default_factory=list)
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def surface_table(self) -> Dict[str, SurfaceDecl]:
        return {declaration.name: declaration for declaration in self.surfaces}

    def draw_count(self) -> int:
        return sum(1 for command in self.commands if isinstance(command, Draw))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "meta": self.meta,
            "surfaces": [dataclasses.asdict(s) for s in self.surfaces],
            "commands": [
                {"op": _TYPE_NAMES[type(c)], **dataclasses.asdict(c)}
                for c in self.commands
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "CommandList":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"malformed command list: {exc}") from exc
        if payload.get("version") != 1:
            raise WorkloadError(
                f"unsupported command-list version {payload.get('version')}"
            )
        surfaces = [SurfaceDecl(**entry) for entry in payload["surfaces"]]
        commands: List[Command] = []
        for entry in payload["commands"]:
            entry = dict(entry)
            op = entry.pop("op", None)
            if op not in _COMMAND_TYPES:
                raise WorkloadError(f"unknown command op {op!r}")
            if op == "draw" and "region" in entry:
                entry["region"] = tuple(entry["region"])
            commands.append(_COMMAND_TYPES[op](**entry))
        return cls(surfaces=surfaces, commands=commands,
                   meta=dict(payload.get("meta", {})))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "CommandList":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as exc:
            raise WorkloadError(f"cannot read command list {path}: {exc}") from exc


# -- capture: passes -> commands ---------------------------------------------------


def _declare(declarations: Dict[str, SurfaceDecl], source) -> str:
    """Register a surface or texture in the resource table; return name."""
    if isinstance(source, MipmappedTexture):
        base_level = source.base_level
        declarations.setdefault(
            source.name,
            SurfaceDecl(
                name=source.name,
                base=base_level.base,
                width_px=base_level.width_px,
                height_px=base_level.height_px,
                tile_px=base_level.tile_px,
                levels=source.num_levels,
            ),
        )
        return source.name
    declarations.setdefault(
        source.name,
        SurfaceDecl(
            name=source.name,
            base=source.base,
            width_px=source.width_px,
            height_px=source.height_px,
            tile_px=source.tile_px,
        ),
    )
    return source.name


def capture_commands(passes: List[RenderPass], meta=None) -> CommandList:
    """Flatten a pass list into a serializable command list."""
    declarations: Dict[str, SurfaceDecl] = {}
    commands: List[Command] = []
    for render_pass in passes:
        commands.append(
            SetTargets(
                color=_declare(declarations, render_pass.color_target),
                depth=_declare(declarations, render_pass.depth_target)
                if render_pass.depth_target
                else None,
                hiz=_declare(declarations, render_pass.hiz_target)
                if render_pass.hiz_target
                else None,
                stencil=_declare(declarations, render_pass.stencil_target)
                if render_pass.stencil_target
                else None,
            )
        )
        commands.append(
            SetPipelineState(
                early_z_reject=render_pass.early_z_reject,
                depth_pass_rate=render_pass.depth_pass_rate,
            )
        )
        for draw in render_pass.draws:
            for slot, binding in enumerate(draw.textures):
                commands.append(
                    BindTexture(
                        slot=slot,
                        surface=_declare(declarations, binding.source),
                        samples_per_tile=binding.samples_per_tile,
                        lod=binding.lod,
                        screen_mapped=binding.screen_mapped,
                        full_read=binding.full_read,
                        hot_probability=binding.hot_probability,
                        hot_fraction=binding.hot_fraction,
                    )
                )
            commands.append(
                Draw(
                    region=draw.region,
                    coverage=draw.coverage,
                    blend=draw.blend,
                    depth_test=draw.depth_test,
                    depth_write=draw.depth_write,
                    stencil_test=draw.stencil_test,
                    vertex_blocks=draw.vertex_blocks,
                    vertex_phase=draw.vertex_phase,
                    uv_phase=draw.uv_phase,
                )
            )
        if render_pass.resolve_to is not None:
            commands.append(
                Present(display=_declare(declarations, render_pass.resolve_to))
            )
    return CommandList(
        surfaces=list(declarations.values()),
        commands=commands,
        meta=dict(meta or {}),
    )


# -- reconstruction: commands -> passes (used by the replayer) ---------------------


def _mip_chain(declaration: SurfaceDecl) -> MipmappedTexture:
    """Rebuild the MIP pyramid layout of a multi-level declaration.

    Levels were allocated contiguously by
    :func:`repro.workloads.surfaces.allocate_texture`; recompute each
    level's base from the page-aligned sizes.
    """
    levels: List[Surface] = []
    base = declaration.base
    width, height = declaration.width_px, declaration.height_px
    for level_index in range(declaration.levels):
        level = Surface(
            f"{declaration.name}.mip{level_index}", base, width, height,
            declaration.tile_px,
        )
        levels.append(level)
        pages = -(-level.size_bytes // PAGE_BYTES)
        base += pages * PAGE_BYTES
        width = max(4, width // 2)
        height = max(4, height // 2)
    return MipmappedTexture(name=declaration.name, levels=levels)


def passes_from_commands(command_list: CommandList) -> List[RenderPass]:
    """Rebuild an executable pass list from a captured command stream."""
    table = command_list.surface_table()
    cache: Dict[str, object] = {}

    def resolve(name: str, as_texture: bool):
        key = ("tex" if as_texture else "surf", name)
        if key not in cache:
            declaration = table.get(name)
            if declaration is None:
                raise WorkloadError(f"command references unknown surface {name!r}")
            if as_texture and declaration.levels > 1:
                cache[key] = _mip_chain(declaration)
            else:
                cache[key] = declaration.to_surface()
        return cache[key]

    passes: List[RenderPass] = []
    current_targets: Optional[SetTargets] = None
    current_state = SetPipelineState()
    pending_bindings: Dict[int, TextureBinding] = {}
    draws: List[DrawCall] = []
    resolve_to: Optional[str] = None

    def flush() -> None:
        nonlocal draws, resolve_to
        if current_targets is None or (not draws and resolve_to is None):
            draws = []
            resolve_to = None
            return
        passes.append(
            RenderPass(
                name=f"replay{len(passes)}",
                color_target=resolve(current_targets.color, False),
                depth_target=resolve(current_targets.depth, False)
                if current_targets.depth
                else None,
                hiz_target=resolve(current_targets.hiz, False)
                if current_targets.hiz
                else None,
                stencil_target=resolve(current_targets.stencil, False)
                if current_targets.stencil
                else None,
                draws=tuple(draws),
                early_z_reject=current_state.early_z_reject,
                depth_pass_rate=current_state.depth_pass_rate,
                resolve_to=resolve(resolve_to, False) if resolve_to else None,
            )
        )
        draws = []
        resolve_to = None

    for command in command_list.commands:
        if isinstance(command, SetTargets):
            flush()
            current_targets = command
        elif isinstance(command, SetPipelineState):
            current_state = command
        elif isinstance(command, BindTexture):
            declaration = table.get(command.surface)
            as_texture = declaration is not None and declaration.levels > 1
            pending_bindings[command.slot] = TextureBinding(
                source=resolve(command.surface, as_texture),
                samples_per_tile=command.samples_per_tile,
                lod=command.lod,
                screen_mapped=command.screen_mapped,
                full_read=command.full_read,
                hot_probability=command.hot_probability,
                hot_fraction=command.hot_fraction,
            )
        elif isinstance(command, Draw):
            bindings = tuple(
                pending_bindings[slot] for slot in sorted(pending_bindings)
            )
            pending_bindings.clear()
            draws.append(
                DrawCall(
                    region=command.region,
                    coverage=command.coverage,
                    textures=bindings,
                    blend=command.blend,
                    depth_test=command.depth_test,
                    depth_write=command.depth_write,
                    stencil_test=command.stencil_test,
                    vertex_blocks=command.vertex_blocks,
                    vertex_phase=command.vertex_phase,
                    uv_phase=command.uv_phase,
                )
            )
        elif isinstance(command, Present):
            resolve_to = command.display
        else:  # pragma: no cover - exhaustive by construction
            raise WorkloadError(f"unknown command {command!r}")
    flush()
    return passes
