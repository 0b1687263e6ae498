module congestedclique/bench

go 1.24

require congestedclique v0.0.0

replace congestedclique => ../
