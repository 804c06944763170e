"""Spanning-tree packing numbers with certificates, exact spectra, and
edge connectivity, plus the tight d-regular families relating them.

The package re-exports nothing: import each name from the module that
defines it (`treepack.graphs`, `treepack.packing`, ...), so importing one
module loads only what that module imports.
"""
