"""Symbolic-music event domain: a piece's (t, a, part) rows, their unrolled
codes and canonical symbol streams (`encoding`), n-gram step models (`ngram`),
the adapter that exposes them as a sequence model (`adapter`), event, corpus
and constraint files (`files`) and MIDI input and output (`midi`).  Each name
is imported from its module."""
