"""Maslov indices, metaplectic Gaussian calculus and spinor holonomy on Lagrangians."""
