//! No library code: the integration batteries live in `tests/tests/`.
