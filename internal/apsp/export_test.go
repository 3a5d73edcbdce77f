package apsp

// MergeSet is mergeSet for the external tests: the reduced sources whose
// rows fillDijkstra assembles instead of searching.
var MergeSet = mergeSet
