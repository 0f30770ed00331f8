"""Seeded end-to-end benchmark of the SQUARE reproduction (see README.md)."""
