"""Minimal standard-MIDI-file subset: note on/off events only.

Import maps channels to parts, rescales ticks to 2400 per quarter, sorts into
canonical code order, and rejects anything the event domain cannot represent
faithfully: SMPTE time division, overlapping or zero-length same-pitch notes
on one channel, and dangling note-ons/offs.  Export writes a format-0 file at
2400 ppq; exporting then importing reproduces the event list exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .encoding import TICKS_PER_QUARTER, MusicEvent
from .files import in_file

NOTE_ON_VELOCITY = 64


def _read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def _write_vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _parse_track(data: bytes) -> list[tuple[int, int, int, bool]]:
    """(tick, channel, pitch, is_on) triples of one track chunk body."""
    notes = []
    pos = 0
    tick = 0
    status = None
    while pos < len(data):
        delta, pos = _read_vlq(data, pos)
        tick += delta
        if pos >= len(data):
            raise ValueError("track ends inside an event")
        byte = data[pos]
        if byte >= 0x80:
            pos += 1
            if byte == 0xFF:  # meta: a type byte precedes the length
                pos += 1
            if byte in (0xFF, 0xF0, 0xF7):  # meta or sysex
                length, pos = _read_vlq(data, pos)
                pos += length
                if pos > len(data):
                    raise ValueError("truncated meta or sysex event")
                status = None
                continue
            status = byte
        elif status is None:
            raise ValueError("running status without a prior status byte")
        kind = status & 0xF0
        channel = status & 0x0F
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            size = 2
        elif kind in (0xC0, 0xD0):
            size = 1
        else:
            raise ValueError(f"unsupported status byte 0x{status:02x}")
        payload = data[pos:pos + size]
        if len(payload) < size:
            raise ValueError("truncated channel event")
        if max(payload) >= 0x80:
            raise ValueError(f"data byte 0x{max(payload):02x} has its high bit set")
        d1 = payload[0]
        d2 = payload[1] if size == 2 else 0
        pos += size
        if kind == 0x90:
            notes.append((tick, channel, d1, d2 > 0))
        elif kind == 0x80:
            notes.append((tick, channel, d1, False))
    return notes


def _check_note_pairing(events: Sequence[MusicEvent]) -> None:
    state: dict[tuple[int, int], tuple[bool, int]] = {}
    for ev in events:
        is_on = ev.a <= 128
        pitch = ev.a - 1 if is_on else ev.a - 129
        key = (ev.part, pitch)
        on_now, last_t = state.get(key, (False, None))
        if last_t == ev.t:
            raise ValueError(f"pitch {pitch} on part {ev.part} has simultaneous events "
                             f"at tick {ev.t}: zero-length or retriggered note")
        if is_on and on_now:
            raise ValueError(f"pitch {pitch} on part {ev.part} re-triggered at tick {ev.t} "
                             "while still sounding: overlapping notes are not representable")
        if not is_on and not on_now:
            raise ValueError(f"pitch {pitch} on part {ev.part} released at tick {ev.t} "
                             "without a matching note-on")
        state[key] = (is_on, ev.t)
    hanging = [k for k, (on, _) in state.items() if on]
    if hanging:
        part, pitch = hanging[0]
        raise ValueError(f"pitch {pitch} on part {part} is never released")


def read_midi(path) -> list[MusicEvent]:
    """Parse the note on/off content of a MIDI file into canonical events."""
    with in_file(path):
        data = Path(path).read_bytes()
        if data[:4] != b"MThd":
            raise ValueError("not a MIDI file")
        if len(data) < 14:
            raise ValueError("truncated MIDI header")
        header_len = int.from_bytes(data[4:8], "big")
        fmt = int.from_bytes(data[8:10], "big")
        ntrks = int.from_bytes(data[10:12], "big")
        division = int.from_bytes(data[12:14], "big")
        if fmt not in (0, 1):
            raise ValueError(f"unsupported MIDI format {fmt}")
        if division & 0x8000:
            raise ValueError("SMPTE time division is not supported")
        ppq = division
        if ppq == 0:
            raise ValueError("zero ticks-per-quarter division")
        pos = 8 + header_len
        notes = []
        for _ in range(ntrks):
            chunk = data[pos:pos + 8]
            if len(chunk) < 8 or chunk[:4] != b"MTrk":
                raise ValueError(f"malformed track chunk at byte {pos}")
            length = int.from_bytes(chunk[4:], "big")
            body = data[pos + 8:pos + 8 + length]
            if len(body) < length:
                raise ValueError(f"track chunk at byte {pos} is truncated")
            notes.extend(_parse_track(body))
            pos += 8 + length
        events = []
        for tick, channel, pitch, is_on in notes:
            t = int(round(tick * TICKS_PER_QUARTER / ppq))
            a = pitch + 1 if is_on else pitch + 129
            events.append(MusicEvent(t=t, a=a, part=channel))
        events.sort(key=lambda ev: (ev.t, ev.part, ev.a))
        _check_note_pairing(events)
        return events


def write_midi(path, events: Sequence[MusicEvent]) -> None:
    """Write canonical events as a format-0 MIDI file at 2400 ppq.

    Rejects event lists the reader would reject (unpaired or overlapping
    notes), so a written file can always be read back.
    """
    _check_note_pairing(events)
    track = bytearray()
    prev = (0,)  # the last event's (t, part, a): canonical order ascends strictly
    for ev in events:
        if ev.part > 15:
            raise ValueError(f"part {ev.part} exceeds the 16 MIDI channels")
        if (ev.t, ev.part, ev.a) <= prev:
            raise ValueError("events must be in canonical order")
        track += _write_vlq(ev.t - prev[0])
        prev = (ev.t, ev.part, ev.a)
        if ev.a <= 128:
            track += bytes([0x90 | ev.part, ev.a - 1, NOTE_ON_VELOCITY])
        else:
            track += bytes([0x80 | ev.part, ev.a - 129, NOTE_ON_VELOCITY])
    track += b"\x00\xff\x2f\x00"  # end of track
    out = bytearray()
    out += b"MThd" + (6).to_bytes(4, "big")
    out += (0).to_bytes(2, "big") + (1).to_bytes(2, "big")
    out += TICKS_PER_QUARTER.to_bytes(2, "big")
    out += b"MTrk" + len(track).to_bytes(4, "big") + track
    Path(path).write_bytes(bytes(out))
