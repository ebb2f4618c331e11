"""Byte-addressable simulated memory.

Each :class:`FlatMemory` is one address space made of named segments
(globals, stack, heap for the CPU; a single device segment for the
GPU).  Every access is bounds-checked against its segment, so a CPU
dereference of a GPU pointer -- the bug class CGCM prevents -- raises
:class:`MemoryFault` instead of silently reading garbage.

Scalar accesses are the hottest operation in the whole simulator
(every IR ``load``/``store`` lands here), so two access disciplines
coexist:

* **Legacy struct codecs** -- per-width :class:`struct.Struct`
  instances built once at import time; ``unpack_from``/``pack_into``
  avoid intermediate ``bytes`` copies.  This is the reference path
  (tree-walker, and the source engine's unaligned or growing
  accesses).
* **Typed memoryview segments** -- each segment additionally exposes
  zero-copy ``memoryview.cast`` views of its backing bytearray, one
  per scalar width, so an aligned in-bounds access is a single typed
  index instead of a pack/unpack round trip, and whole-unit transfers
  are slice assignments (:func:`copy_across`).  The views are
  byte-equivalent to the codecs (little-endian hosts; elsewhere the
  fast path disarms itself and everything falls back to the codecs).

A one-entry segment cache skips the linear segment scan for the
overwhelmingly common case of consecutive accesses to the same
segment.

Resizing a bytearray with exported buffers raises ``BufferError``, so
the typed views are released before any actual growth and rebuilt
afterwards; growth is geometric and 8-byte aligned to amortize the
rebuilds and keep every view castable.
"""

from __future__ import annotations

import struct
import sys
from typing import Dict, List, Optional, Union

from ..errors import MemoryFault
from ..ir.types import FloatType, IntType, PointerType, Type

_INT_FORMATS = {1: "<b", 8: "<b", 16: "<h", 32: "<i", 64: "<q"}
_FLOAT_FORMATS = {32: "<f", 64: "<d"}
_POINTER_FORMAT = "<Q"

#: Pre-compiled codecs, one per scalar width; ``struct.Struct`` parses
#: its format string once here instead of on every access.
_INT_STRUCTS = {bits: struct.Struct(fmt)
                for bits, fmt in _INT_FORMATS.items()}
_FLOAT_STRUCTS = {bits: struct.Struct(fmt)
                  for bits, fmt in _FLOAT_FORMATS.items()}
_POINTER_STRUCT = struct.Struct(_POINTER_FORMAT)

#: The typed views decode native-endian; the codecs are explicitly
#: little-endian.  They agree only on little-endian hosts, so the
#: vectorized fast path arms itself conditionally (big-endian hosts
#: keep the codec path everywhere, bit-identically).
VIEWS_ARMED = sys.byteorder == "little"

#: Per struct-code dispatch for the typed-view fast path: (segment
#: view attribute, live-limit attribute, index shift, alignment mask).
#: Shared by :meth:`FlatMemory.load_typed`/:meth:`FlatMemory.store_typed`
#: and the source engine, which bakes the same attribute names into
#: its emitted access code.
VIEW_ACCESS = {
    "b": ("vb", "hi1", 0, 0),
    "h": ("vh", "hi2", 1, 1),
    "i": ("vi", "hi4", 2, 3),
    "q": ("vq", "hi8", 3, 7),
    "Q": ("vQ", "hi8", 3, 7),
    "f": ("vf", "hi4", 2, 3),
    "d": ("vd", "hi8", 3, 7),
}


class Segment:
    """A contiguous, growable span of one address space."""

    __slots__ = ("name", "base", "capacity", "limit", "data",
                 "hi1", "hi2", "hi4", "hi8",
                 "vb", "vh", "vi", "vq", "vQ", "vf", "vd")

    def __init__(self, name: str, base: int, capacity: int):
        self.name = name
        self.base = base
        self.capacity = capacity
        #: One past the last byte the segment may ever hold (plain
        #: attribute, not a property: it sits on the access hot path).
        self.limit = base + capacity
        self.data = bytearray()
        self._refresh_views()

    @property
    def end(self) -> int:
        """One past the last *allocated* byte (allocation is zero-fill
        and may run ahead of the bytes ever written)."""
        return self.base + len(self.data)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def _release_views(self) -> None:
        # Drop every export of ``data`` so the bytearray may resize.
        self.vb = self.vh = self.vi = None
        self.vq = self.vQ = self.vf = self.vd = None

    def _refresh_views(self) -> None:
        n = len(self.data)
        if VIEWS_ARMED and not n & 7:
            mv = memoryview(self.data)
            self.vb = mv.cast("b")
            self.vh = mv.cast("h")
            self.vi = mv.cast("i")
            self.vq = mv.cast("q")
            self.vQ = mv.cast("Q")
            self.vf = mv.cast("f")
            self.vd = mv.cast("d")
            # Largest offset at which a 1/2/4/8-byte access still fits
            # in the allocated bytes; negative disarms the fast path.
            self.hi1 = n - 1
            self.hi2 = n - 2
            self.hi4 = n - 4
            self.hi8 = n - 8
        else:
            # Unarmed (big-endian host, or a capacity that cannot stay
            # 8-byte aligned): every access takes the codec slow path.
            self._release_views()
            self.hi1 = self.hi2 = self.hi4 = self.hi8 = -1

    def grow_to(self, size: int) -> None:
        if size > self.capacity:
            raise MemoryFault(
                f"segment {self.name} overflow: need {size} bytes, "
                f"capacity {self.capacity}", self.base + size)
        if size > len(self.data):
            # Geometric, 8-byte-aligned growth: amortizes both the
            # zero-fill and the typed-view rebuild, and keeps the
            # buffer castable to every scalar width.
            target = max(size, 2 * len(self.data), 512)
            target = (target + 7) & -8
            if target > self.capacity:
                target = self.capacity
            self._release_views()
            self.data.extend(b"\x00" * (target - len(self.data)))
            self._refresh_views()

    def __repr__(self) -> str:
        return (f"<Segment {self.name} [{self.base:#x}, {self.limit:#x}) "
                f"live={len(self.data)}>")


class FlatMemory:
    """One simulated address space built from disjoint segments."""

    def __init__(self, name: str = "memory"):
        self.name = name
        self.segments: List[Segment] = []
        self._by_name: Dict[str, Segment] = {}
        #: One-entry cache of the last segment hit; scalar accesses
        #: overwhelmingly stay within one segment for long runs.
        self._cached_segment: Optional[Segment] = None

    def add_segment(self, name: str, base: int, capacity: int) -> Segment:
        segment = Segment(name, base, capacity)
        for other in self.segments:
            if base < other.limit and other.base < base + capacity:
                raise MemoryFault(
                    f"segment {name} overlaps {other.name}", base)
        self.segments.append(segment)
        self._by_name[name] = segment
        if self._cached_segment is None:
            self._cached_segment = segment
        return segment

    def segment(self, name: str) -> Segment:
        return self._by_name[name]

    def segment_for(self, address: int) -> Segment:
        segment = self._cached_segment
        if segment is not None and \
                segment.base <= address < segment.limit:
            return segment
        for segment in self.segments:
            if segment.base <= address < segment.limit:
                self._cached_segment = segment
                return segment
        raise MemoryFault(
            f"{self.name}: address {address:#x} is outside every segment "
            "of this address space (foreign or wild pointer)", address)

    def _span(self, address: int, size: int) -> tuple:
        if size < 0:
            raise MemoryFault(f"negative access size {size}", address)
        segment = self.segment_for(address)
        offset = address - segment.base
        if offset + size > segment.capacity:
            raise MemoryFault(
                f"{self.name}: access of {size} bytes at {address:#x} "
                f"overruns segment {segment.name}", address)
        segment.grow_to(offset + size)
        return segment, offset

    # -- raw bytes -------------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        segment, offset = self._span(address, size)
        return bytes(segment.data[offset:offset + size])

    def write(self, address: int, data: bytes) -> None:
        segment, offset = self._span(address, len(data))
        segment.data[offset:offset + len(data)] = data

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        segment, offset = self._span(address, size)
        segment.data[offset:offset + size] = bytes([byte]) * size

    def read_c_string(self, address: int, max_len: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string starting at ``address``."""
        out = bytearray()
        for i in range(max_len):
            byte = self.read(address + i, 1)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise MemoryFault("unterminated C string", address)

    # -- typed scalars ---------------------------------------------------

    def load_scalar(self, address: int, type_: Type) -> Union[int, float]:
        codec = scalar_struct(type_)
        segment = self._cached_segment
        if segment is None or not \
                (segment.base <= address < segment.limit):
            segment = self.segment_for(address)
        offset = address - segment.base
        end = offset + codec.size
        if end > segment.capacity:
            raise MemoryFault(
                f"{self.name}: access of {codec.size} bytes at "
                f"{address:#x} overruns segment {segment.name}", address)
        if end > len(segment.data):
            segment.grow_to(end)
        value = codec.unpack_from(segment.data, offset)[0]
        if isinstance(type_, IntType) and type_.bits == 1:
            value &= 1
        return value

    def store_scalar(self, address: int, type_: Type,
                     value: Union[int, float]) -> None:
        codec = scalar_struct(type_)
        if isinstance(type_, IntType):
            value = type_.wrap(int(value))
        elif isinstance(type_, PointerType):
            value = int(value) & 0xFFFFFFFFFFFFFFFF
        else:
            value = float(value)
        segment = self._cached_segment
        if segment is None or not \
                (segment.base <= address < segment.limit):
            segment = self.segment_for(address)
        offset = address - segment.base
        end = offset + codec.size
        if end > segment.capacity:
            raise MemoryFault(
                f"{self.name}: access of {codec.size} bytes at "
                f"{address:#x} overruns segment {segment.name}", address)
        if end > len(segment.data):
            segment.grow_to(end)
        codec.pack_into(segment.data, offset, value)

    def load_typed(self, address: int, type_: Type) -> Union[int, float]:
        """``load_scalar`` through the typed memoryview fast path.

        Aligned in-bounds accesses decode with one typed index;
        everything else (unaligned, growing, foreign, or an unarmed
        segment) falls back to the codec path.  Byte-equivalent to
        :meth:`load_scalar` by construction -- the property test in
        ``tests/memory/test_segment_views.py`` holds both to it.
        """
        view_attr, hi_attr, shift, amask = VIEW_ACCESS[
            scalar_format(type_)[-1]]
        segment = self._cached_segment
        if segment is None or not \
                (segment.base <= address < segment.limit):
            segment = self.segment_for(address)
        offset = address - segment.base
        if 0 <= offset <= getattr(segment, hi_attr) \
                and not offset & amask:
            value = getattr(segment, view_attr)[offset >> shift]
            if isinstance(type_, IntType) and type_.bits == 1:
                value &= 1
            return value
        return self.load_scalar(address, type_)

    def store_typed(self, address: int, type_: Type,
                    value: Union[int, float]) -> None:
        """``store_scalar`` through the typed memoryview fast path."""
        view_attr, hi_attr, shift, amask = VIEW_ACCESS[
            scalar_format(type_)[-1]]
        segment = self._cached_segment
        if segment is None or not \
                (segment.base <= address < segment.limit):
            segment = self.segment_for(address)
        offset = address - segment.base
        if 0 <= offset <= getattr(segment, hi_attr) \
                and not offset & amask:
            if isinstance(type_, IntType):
                value = type_.wrap(int(value))
            elif isinstance(type_, PointerType):
                value = int(value) & 0xFFFFFFFFFFFFFFFF
            else:
                value = float(value)
            getattr(segment, view_attr)[offset >> shift] = value
            return
        self.store_scalar(address, type_, value)

    def scalar_span(self, address: int, size: int) -> tuple:
        """(segment, offset) for a bounds-checked ``size``-byte access.

        Shared with the source engine, which bakes the codec and
        size at compile time and need only the located span.
        """
        segment = self._cached_segment
        if segment is None or not \
                (segment.base <= address < segment.limit):
            segment = self.segment_for(address)
        offset = address - segment.base
        end = offset + size
        if end > segment.capacity:
            raise MemoryFault(
                f"{self.name}: access of {size} bytes at {address:#x} "
                f"overruns segment {segment.name}", address)
        if end > len(segment.data):
            segment.grow_to(end)
        return segment, offset

    # -- vectorized block access ----------------------------------------

    def read_u64_array(self, address: int, count: int) -> List[int]:
        """``count`` little-endian u64 values starting at ``address``.

        The pointer-array block read of the runtime: one typed slice
        on the fast path instead of ``count`` codec round trips.
        """
        segment, offset = self._span(address, 8 * count)
        if segment.vQ is not None and not offset & 7:
            return segment.vQ[offset >> 3:(offset >> 3) + count].tolist()
        return list(struct.unpack_from(f"<{count}Q", segment.data, offset))


def copy_across(src: FlatMemory, src_address: int,
                dst: FlatMemory, dst_address: int, size: int) -> None:
    """Copy ``size`` bytes between address spaces without staging.

    The whole-unit transfer fast path (map/unmap/evict/restore): a
    single slice assignment from a transient zero-copy view of the
    source segment, instead of materializing intermediate ``bytes``.
    Both spans are resolved (and grown) *before* the view exists, so
    the source bytearray never resizes while exported.
    """
    src_segment, src_offset = src._span(src_address, size)
    dst_segment, dst_offset = dst._span(dst_address, size)
    if src_segment is dst_segment:
        # Same backing store: stage through bytes (memmove semantics).
        dst_segment.data[dst_offset:dst_offset + size] = \
            bytes(src_segment.data[src_offset:src_offset + size])
        return
    with memoryview(src_segment.data) as view:
        dst_segment.data[dst_offset:dst_offset + size] = \
            view[src_offset:src_offset + size]


def scalar_format(type_: Type) -> str:
    """The ``struct`` format character encoding a scalar type."""
    if isinstance(type_, IntType):
        return _INT_FORMATS[type_.bits]
    if isinstance(type_, FloatType):
        return _FLOAT_FORMATS[type_.bits]
    if isinstance(type_, PointerType):
        return _POINTER_FORMAT
    raise MemoryFault(f"cannot access memory as {type_}")


def scalar_struct(type_: Type) -> struct.Struct:
    """The pre-compiled :class:`struct.Struct` codec for a scalar type."""
    if isinstance(type_, IntType):
        return _INT_STRUCTS[type_.bits]
    if isinstance(type_, FloatType):
        return _FLOAT_STRUCTS[type_.bits]
    if isinstance(type_, PointerType):
        return _POINTER_STRUCT
    raise MemoryFault(f"cannot access memory as {type_}")
