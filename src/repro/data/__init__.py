"""Dataset substrate for HCC-MF.

This subpackage provides the rating-matrix data structures, synthetic
dataset generators that mirror the shape statistics of the paper's
evaluation datasets (Table 3), and the row/column grid partitioning
machinery used by the server's ``DataManager`` (paper section 3.3).
"""
