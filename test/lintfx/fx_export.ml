let uncalled x = x + 1
let test_only x = x * 2
let table = [ 1; 2; 3 ]
let oracle x = x - 1
let called_allowed x = x * 3
