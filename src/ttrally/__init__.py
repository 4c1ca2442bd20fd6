"""Monocular table-tennis rally reconstruction, anticipation, and control sim."""
